package prover

import (
	"bytes"
	"math"
	"slices"
	"strconv"

	"predabs/internal/form"
)

// Linear integer arithmetic by Fourier-Motzkin elimination over the
// rationals with gcd tightening (a light Omega test). Infeasibility
// reports are sound for integers; some integer-only infeasibilities are
// missed, which costs precision but never soundness. Every step is
// overflow-checked: a combination that would leave int64 answers
// "feasible, imprecise", and a literal whose linear form overflows is
// left out of the system, both the sound direction.
//
// Constraints are dense rows over congruence-class columns, Σ row[j]·v_j
// ≤ row[w], with the bound in the last slot. Columns are ordered by the
// decimal spelling of the class representative's node id ("c10" before
// "c2"), the order the elimination's tie-breaks and the equality probes
// have always followed.

// fmMaxConstraints caps Fourier-Motzkin growth; on overflow the solver
// gives up and reports "feasible" (the sound direction).
const fmMaxConstraints = 4000

// linTerm is one opaque summand coef·id of a linearized literal: a term
// id in the compiled table, a node or class id in a check.
type linTerm struct {
	id   int32
	coef int64
}

// linLit is a literal's difference x − y as opaque summands, the span
// [from, to) of laSystem.terms, plus a constant. Summands name term
// nodes, not classes, so the form is read once per theory check and
// re-read under each round's classes.
type linLit struct {
	op       form.RelOp
	from, to int
	k        int64
	bad      bool // the linear form overflowed: the literal stays out of LA
}

// laSystem is the linear-arithmetic side of one theory check. Its
// buffers are reused from check to check.
type laSystem struct {
	lits  []linLit
	terms []linTerm // every literal's summands over node ids

	w    int     // columns
	reps []int32 // column -> class representative when the system was built
	cons []int64
	neqs []int64 // rows of expressions asserted non-zero: Σ row[j]·v_j + row[w] ≠ 0
	base []int64 // cons normalized, ground rows dropped
	// baseFalse: some constraint is a false ground fact; baseOverflow:
	// normalizing one left int64.
	baseFalse, baseOverflow bool

	acc     []int64 // node id -> coefficient being summed for one literal
	mark    []bool  // node id -> in touched
	col     []int32 // node id -> column, -1 when absent
	touched []int32
	sparse  []linTerm // per literal, its summed (representative, coef) pairs
	spans   []litSpan
	pos     []int
	neg     []int
	work    [2][]int64
	row     []int64
	expr    []int64
	vars    []int
	consts  []constNode

	// The base run's elimination, level by level, and the integer point
	// of la.base read back from it (witness).
	levels []fmLevel
	lvRows []int64 // each level's rows that hold its column, copied
	wit    []int64 // column -> witness value
	set    []bool  // column -> wit holds its value
	taken  []int64 // values the witness and the class constants hold
	// free are the columns a level's interval gave their first values,
	// and freeVal those values, for retryFree.
	free    []int
	freeVal []int64
	witOK   bool // wit is an integer point of la.base this round

	fmRuns, probes, fullRounds int64 // feasible calls, entailsZero probes, rounds without a witness
}

// fmLevel is one elimination step of the base run: the column it
// eliminated and its rows, the span [from, to) of laSystem.lvRows.
type fmLevel struct {
	col, from, to int
}

// litSpan locates one literal's summed pairs in laSystem.sparse.
type litSpan struct {
	from, to int
	k        int64
	skip     bool
}

// init reads the literals' compiled linear forms over the closure's
// nodes, adding any summand the closure has not met, in order.
func (la *laSystem) init(c *cc, snap termSnap, ids []int32) {
	la.lits, la.terms = la.lits[:0], la.terms[:0]
	for _, id := range ids {
		cl := &snap.lits[id]
		ll := linLit{op: cl.op, from: len(la.terms), k: cl.k, bad: cl.bad}
		for _, t := range cl.lin {
			la.terms = append(la.terms, linTerm{id: c.add(t.id), coef: t.coef})
		}
		ll.to = len(la.terms)
		la.lits = append(la.lits, ll)
	}
	n := len(c.nodes)
	la.acc = resize(la.acc, n)
	la.mark = resize(la.mark, n)
	la.col = resize(la.col, n)
}

// resize returns buf with length n and every slot zeroed.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// build derives this round's constraint rows from the literals under the
// congruence closure's current classes: opaque summands become their
// class's column, or the class's integer constant.
func (la *laSystem) build(c *cc) {
	la.sparse, la.spans = la.sparse[:0], la.spans[:0]
	for i := range la.col {
		la.col[i] = -1
	}
	la.reps = la.reps[:0]
	for i := range la.lits {
		ll := &la.lits[i]
		sp := litSpan{from: len(la.sparse), k: ll.k, skip: ll.bad}
		ok := !ll.bad
		for _, t := range la.terms[ll.from:ll.to] {
			if !ok {
				break
			}
			r := c.find(t.id)
			if n := c.nodes[r]; n.hasNum {
				var v int64
				if v, ok = mulOK(t.coef, n.numVal); ok {
					sp.k, ok = addOK(sp.k, v)
				}
				continue
			}
			if !la.mark[r] {
				la.mark[r] = true
				la.touched = append(la.touched, r)
			}
			la.acc[r], ok = addOK(la.acc[r], t.coef)
		}
		for _, r := range la.touched {
			// A class whose summands cancel out is not a variable of the
			// literal.
			if co := la.acc[r]; co != 0 && ok {
				la.sparse = append(la.sparse, linTerm{id: r, coef: co})
				if la.col[r] < 0 {
					la.col[r] = 0
					la.reps = append(la.reps, r)
				}
			}
			la.acc[r], la.mark[r] = 0, false
		}
		la.touched = la.touched[:0]
		sp.to = len(la.sparse)
		sp.skip = sp.skip || !ok
		la.spans = append(la.spans, sp)
	}
	sortDecimal(la.reps)
	for j, r := range la.reps {
		la.col[r] = int32(j)
	}
	la.w = len(la.reps)
	stride := la.w + 1
	la.cons, la.neqs = la.cons[:0], la.neqs[:0]
	for i, sp := range la.spans {
		if sp.skip {
			continue
		}
		switch op := la.lits[i].op; op {
		case form.Ne:
			la.neqs, _ = la.appendRow(la.neqs, sp, 1, sp.k) // sign 1 cannot overflow
		default: // Eq, Le, Lt
			// d ≤ 0 reads Σ ≤ −k; d < 0 reads Σ ≤ −k − 1.
			b, ok := mulOK(sp.k, -1)
			if ok && op == form.Lt {
				b, ok = addOK(b, -1)
			}
			if !ok {
				continue
			}
			n := len(la.cons)
			la.cons, ok = la.appendRow(la.cons, sp, 1, b)
			if ok && op == form.Eq {
				// d ≥ 0 as well: −Σ ≤ k.
				if la.cons, ok = la.appendRow(la.cons, sp, -1, sp.k); !ok {
					la.cons = la.cons[:n]
				}
			}
		}
	}
	la.base = la.base[:0]
	la.baseFalse, la.baseOverflow = false, false
	for off := 0; off < len(la.cons); off += stride {
		var row []int64
		la.base, row = grow(la.base, stride)
		copy(row, la.cons[off:off+stride])
		switch normalize(row, la.w) {
		case normEmpty:
			la.base = la.base[:len(la.base)-stride]
		case normFalse:
			la.baseFalse = true
		case normOverflow:
			la.baseOverflow = true
		}
	}
}

// appendRow appends sign times the literal's summed difference as a row
// with the given last slot. It reports false, appending nothing, when a
// coefficient overflows.
func (la *laSystem) appendRow(rows []int64, sp litSpan, sign, last int64) ([]int64, bool) {
	n := len(rows)
	rows, row := grow(rows, la.w+1)
	for _, t := range la.sparse[sp.from:sp.to] {
		co, ok := mulOK(t.coef, sign)
		if !ok {
			return rows[:n], false
		}
		row[la.col[t.id]] = co
	}
	row[la.w] = last
	return rows, true
}

// grow appends n zeroed slots to buf and returns the new slice and them.
func grow(buf []int64, n int) ([]int64, []int64) {
	l := len(buf)
	if cap(buf)-l < n {
		nb := make([]int64, l, 2*cap(buf)+n)
		copy(nb, buf)
		buf = nb
	}
	buf = buf[:l+n]
	row := buf[l:]
	clear(row)
	return buf, row
}

// sortDecimal orders node ids by their decimal spelling.
func sortDecimal(ids []int32) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && decimalLess(ids[j], ids[j-1]); j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

func decimalLess(a, b int32) bool {
	var ba, bb [20]byte
	return bytes.Compare(strconv.AppendInt(ba[:0], int64(a), 10), strconv.AppendInt(bb[:0], int64(b), 10)) < 0
}

type normResult uint8

const (
	normOK       normResult = iota
	normEmpty               // no variables, and the ground fact holds
	normFalse               // no variables, and the ground fact is false
	normOverflow            // a coefficient cannot be negated in int64
)

// normalize divides a row by the gcd of its coefficients and floors the
// bound (valid for integer variables).
func normalize(row []int64, w int) normResult {
	var g int64
	for _, co := range row[:w] {
		if co == 0 {
			continue
		}
		if co == math.MinInt64 {
			return normOverflow
		}
		g = gcd64(g, co)
	}
	switch {
	case g == 0 && row[w] >= 0:
		return normEmpty
	case g == 0:
		return normFalse
	case g > 1:
		for j := range row[:w] {
			row[j] /= g
		}
		k := row[w]
		q := k / g
		if k%g != 0 && k < 0 {
			q-- // floor, not truncation
		}
		row[w] = q
	}
	return normOK
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// mulOK returns a·b and whether it fits in int64.
func mulOK(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	r := a * b
	if r/b != a || (a == -1 && b == math.MinInt64) || (b == -1 && a == math.MinInt64) {
		return 0, false
	}
	return r, true
}

// addOK returns a+b and whether it fits in int64.
func addOK(a, b int64) (int64, bool) {
	r := a + b
	if (r > a) != (b > 0) {
		return 0, false
	}
	return r, true
}

// feasible reports whether the base system, plus the extra row when one
// is given, has a rational solution (false = definitely infeasible over
// the integers too). The second result is false when the solver gave up
// (size cap or int64 overflow). The base run (no extra row) records its
// elimination levels for witness.
func (la *laSystem) feasible(extra []int64) (feasible, precise bool) {
	la.fmRuns++
	if extra == nil {
		la.levels, la.lvRows = la.levels[:0], la.lvRows[:0]
	}
	switch {
	case la.baseFalse:
		return false, true
	case la.baseOverflow:
		return true, false
	}
	w, stride := la.w, la.w+1
	work := append(la.work[0][:0], la.base...)
	if extra != nil {
		var row []int64
		work, row = grow(work, stride)
		copy(row, extra)
		switch normalize(row, w) {
		case normEmpty:
			work = work[:len(work)-stride]
		case normFalse:
			la.work[0] = work
			return false, true
		case normOverflow:
			la.work[0] = work
			return true, false
		}
	}
	next := la.work[1][:0]
	defer func() { la.work[0], la.work[1] = work, next }()
	for {
		// Eliminate the variable with the fewest pos×neg combinations;
		// ties go to the first column.
		best, bestCost := -1, 1<<30
		for j := 0; j < w; j++ {
			np, nn := 0, 0
			for off := j; off < len(work); off += stride {
				switch co := work[off]; {
				case co > 0:
					np++
				case co < 0:
					nn++
				}
			}
			if np+nn > 0 && np*nn < bestCost {
				best, bestCost = j, np*nn
			}
		}
		if best < 0 {
			return true, true
		}
		la.pos, la.neg = la.pos[:0], la.neg[:0]
		next = next[:0]
		for off := 0; off < len(work); off += stride {
			switch co := work[off+best]; {
			case co > 0:
				la.pos = append(la.pos, off)
			case co < 0:
				la.neg = append(la.neg, off)
			default:
				next = append(next, work[off:off+stride]...)
			}
		}
		if extra == nil {
			lv := fmLevel{col: best, from: len(la.lvRows)}
			for _, off := range la.pos {
				la.lvRows = append(la.lvRows, work[off:off+stride]...)
			}
			for _, off := range la.neg {
				la.lvRows = append(la.lvRows, work[off:off+stride]...)
			}
			lv.to = len(la.lvRows)
			la.levels = append(la.levels, lv)
		}
		for _, a := range la.pos {
			for _, b := range la.neg {
				ra, rb := work[a:a+stride], work[b:b+stride]
				ca, cb := ra[best], -rb[best] // ca>0, cb>0
				var nc []int64
				next, nc = grow(next, stride)
				for j := range nc {
					x, ok1 := mulOK(ra[j], cb)
					y, ok2 := mulOK(rb[j], ca)
					s, ok3 := addOK(x, y)
					if !ok1 || !ok2 || !ok3 {
						return true, false
					}
					nc[j] = s
				}
				switch normalize(nc, w) {
				case normFalse:
					return false, true
				case normOverflow:
					return true, false
				case normEmpty:
					next = next[:len(next)-stride]
				}
				if len(next)/stride > fmMaxConstraints {
					return true, false // gave up
				}
			}
		}
		work, next = next, work
	}
}

// witness reads an integer point of la.base back from the elimination
// levels the base run recorded, in reverse elimination order, into
// la.wit, and reports whether it found one. Each level's column takes an
// integer between the bounds its rows give with the later columns fixed;
// a column no level eliminates takes any value. Fourier–Motzkin makes
// every level's rational interval non-empty; when one holds no integer
// and the level's rows hold columns no level eliminates, those free
// columns are retried over a bounded window of values (2a = 3b + 1 needs
// an odd b). When no value of the window gives an integer, or a product
// leaves int64, there is no witness. Values prefer to differ from the
// other columns' and from the class constants, so the witness separates
// as many probes as it can. Call it only after a feasible, precise base
// run.
func (la *laSystem) witness(c *cc) bool {
	w := la.w
	la.wit, la.set = resize(la.wit, w), resize(la.set, w)
	la.taken = la.taken[:0]
	la.consts = collectConstants(c, la.consts[:0])
	for _, kv := range la.consts {
		la.taken = append(la.taken, kv.val)
	}
	for l := len(la.levels) - 1; l >= 0; l-- {
		lv := la.levels[l]
		la.free = la.free[:0]
		lo, hi, ok := la.interval(lv)
		if ok && lo > hi && len(la.free) > 0 {
			lo, hi, ok = la.retryFree(lv)
		}
		if !ok || lo > hi {
			return false
		}
		la.assign(lv.col, lo, hi)
	}
	for j := range la.set {
		if !la.set[j] {
			la.assign(j, math.MinInt64, math.MaxInt64)
		}
	}
	return true
}

// interval returns the bounds level lv's rows give its column with every
// other column fixed, first giving each column not yet set a value and
// recording it in la.free. ok is false when a product leaves int64.
func (la *laSystem) interval(lv fmLevel) (lo, hi int64, ok bool) {
	w, stride := la.w, la.w+1
	lo, hi = math.MinInt64, math.MaxInt64
	for off := lv.from; off < lv.to; off += stride {
		row := la.lvRows[off : off+stride]
		b := row[w]
		for j, co := range row[:w] {
			if co == 0 || j == lv.col {
				continue
			}
			if !la.set[j] {
				la.assign(j, math.MinInt64, math.MaxInt64)
				la.free = append(la.free, j)
			}
			// Normalized rows hold no MinInt64 coefficient.
			p, ok := mulOK(-co, la.wit[j])
			if ok {
				b, ok = addOK(b, p)
			}
			if !ok {
				return 0, 0, false
			}
		}
		// a·x ≤ b: x ≤ ⌊b/a⌋ for a > 0, x ≥ ⌈b/a⌉ for a < 0.
		if a := row[lv.col]; a > 0 {
			hi = min(hi, floorDiv(b, a))
		} else if a == -1 && b == math.MinInt64 {
			return 0, 0, false
		} else {
			lo = max(lo, -floorDiv(b, -a))
		}
	}
	return lo, hi, true
}

// witnessWindow is how far retryFree moves a free column from its first
// value, either way; witnessTrials caps its trials over all the level's
// free columns together.
const (
	witnessWindow = 8
	witnessTrials = 64
)

// retryFree moves the free columns la.free of level lv, an odometer over
// offsets 1, -1, 2, -2, ... up to witnessWindow from their first values,
// until the level's interval holds an integer. It returns that interval,
// or an empty one when no trial gives one.
func (la *laSystem) retryFree(lv fmLevel) (lo, hi int64, ok bool) {
	const radix = 2*witnessWindow + 1
	la.freeVal = la.freeVal[:0]
	for _, j := range la.free {
		la.freeVal = append(la.freeVal, la.wit[j])
	}
	for t := 1; t < witnessTrials; t++ {
		n := t
		for i, j := range la.free {
			d := int64(n % radix)
			n /= radix
			off := (d + 1) / 2
			if d%2 == 0 {
				off = -off
			}
			if la.wit[j], ok = addOK(la.freeVal[i], off); !ok {
				return 0, 0, false
			}
		}
		if n > 0 {
			break // every combination of the window tried
		}
		if lo, hi, ok = la.interval(lv); !ok || lo <= hi {
			return lo, hi, ok
		}
	}
	return 1, 0, true
}

// assign gives column j a witness value in [lo, hi], the int64 extremes
// standing for no bound: the point of the interval nearest 0, or the
// first one stepping inward from it that the witness does not already
// hold.
func (la *laSystem) assign(j int, lo, hi int64) {
	v := min(max(0, lo), hi)
	u, step, end := v, int64(1), hi
	if v == hi {
		step, end = -1, lo
	}
	for u != end && slices.Contains(la.taken, u) {
		u += step
	}
	if !slices.Contains(la.taken, u) {
		v = u
	}
	la.wit[j], la.set[j] = v, true
	la.taken = append(la.taken, v)
}

// floorDiv returns ⌊n/d⌋ for d > 0.
func floorDiv(n, d int64) int64 {
	q := n / d
	if n%d != 0 && n < 0 {
		q--
	}
	return q
}

// separates reports whether the witness makes the row expr (coefficients,
// then the constant) non-zero. The witness is then an integer point of
// the base system with expr ≤ -1 or expr ≥ 1, so entailsZero(expr), whose
// Fourier–Motzkin runs are sound for integers, would answer false.
func (la *laSystem) separates(expr []int64) bool {
	if !la.witOK {
		return false
	}
	s := expr[la.w]
	for j, co := range expr[:la.w] {
		p, ok := mulOK(co, la.wit[j])
		if ok {
			s, ok = addOK(s, p)
		}
		if !ok {
			return false
		}
	}
	return s != 0
}

// entailsZero reports whether the base system entails expr = 0 for the
// row expr (coefficients, then the constant), i.e. both expr ≤ -1 and
// expr ≥ 1 are infeasible.
func (la *laSystem) entailsZero(expr []int64) bool {
	la.probes++
	w := la.w
	row := append(la.row[:0], expr...)
	la.row = row
	k := expr[w]
	if k == math.MinInt64 {
		return false
	}
	// expr ≤ -1: Σ ≤ -1 - k.
	b, ok := addOK(-1, -k)
	if !ok {
		return false
	}
	row[w] = b
	if f, prec := la.feasible(row); f || !prec {
		return false
	}
	// expr ≥ 1: -Σ ≤ -1 + k.
	for j := 0; j < w; j++ {
		if row[j], ok = mulOK(expr[j], -1); !ok {
			return false
		}
	}
	if row[w], ok = addOK(-1, k); !ok {
		return false
	}
	f, prec := la.feasible(row)
	return !f && prec
}

// propagateEqualities probes pairs of LA variables (and constants) for
// entailed equalities and merges the corresponding congruence classes,
// skipping every pair the round's witness tells apart (see separates).
// It reports whether any new merge happened.
func (la *laSystem) propagateEqualities(c *cc) bool {
	w, stride := la.w, la.w+1
	vars := la.vars[:0] // columns with a coefficient in some constraint, in order
	for j := 0; j < w; j++ {
		for off := j; off < len(la.cons); off += stride {
			if la.cons[off] != 0 {
				vars = append(vars, j)
				break
			}
		}
	}
	la.vars = vars
	if len(vars) == 0 || len(vars) > maxProbeVars {
		return false
	}
	la.expr = resize(la.expr, stride)
	expr := la.expr
	changed := false
	// Pairwise variable equalities.
	for i := 0; i < len(vars) && !c.failed; i++ {
		for j := i + 1; j < len(vars) && !c.failed; j++ {
			if la.witOK && la.wit[vars[i]] != la.wit[vars[j]] {
				continue
			}
			ni, nj := la.reps[vars[i]], la.reps[vars[j]]
			if c.find(ni) == c.find(nj) {
				continue
			}
			clear(expr)
			expr[vars[i]], expr[vars[j]] = 1, -1
			if la.entailsZero(expr) {
				c.mergeIDs(ni, nj)
				changed = true
			}
		}
	}
	// Variable = integer constant.
	la.consts = collectConstants(c, la.consts[:0])
	for _, v := range vars {
		if c.failed {
			break
		}
		ni := la.reps[v]
		if _, has := c.classConst(ni); has {
			continue
		}
		for _, kv := range la.consts {
			if kv.val == math.MinInt64 || la.witOK && la.wit[v] != kv.val {
				continue
			}
			clear(expr)
			expr[v], expr[w] = 1, -kv.val
			if la.entailsZero(expr) {
				c.mergeIDs(ni, kv.id)
				changed = true
				break
			}
		}
	}
	return changed
}

type constNode struct {
	id  int32
	val int64
}

// collectConstants appends the classes holding an integer constant, by
// representative.
func collectConstants(c *cc, out []constNode) []constNode {
	for i := range c.nodes {
		if n := &c.nodes[i]; n.parent == int32(i) && n.hasNum {
			out = append(out, constNode{id: int32(i), val: n.numVal})
		}
	}
	return out
}
