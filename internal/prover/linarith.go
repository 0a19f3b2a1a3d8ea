package prover

import (
	"bytes"
	"math"
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

// linTerm is one opaque summand coef·node of a linearized literal.
type linTerm struct {
	node int
	coef int64
}

// linLit is a literal's difference x − y as opaque summands plus a
// constant. Summands name term nodes, not classes, so the form is
// computed once per theory check and re-read under each round's classes.
type linLit struct {
	op    form.RelOp
	terms []linTerm
	k     int64
	bad   bool // the linear form overflowed: the literal stays out of LA
}

// linearize adds mul·t to the summands and constant. Non-arithmetic terms
// (and nonlinear applications) are opaque nodes of the congruence
// closure. It reports false on int64 overflow.
func linearize(c *cc, t form.Term, mul int64, terms *[]linTerm, k *int64) bool {
	switch t := t.(type) {
	case form.Num:
		v, ok := mulOK(mul, t.V)
		if ok {
			*k, ok = addOK(*k, v)
		}
		return ok
	case form.Neg:
		m, ok := mulOK(mul, -1)
		return ok && linearize(c, t.X, m, terms, k)
	case form.Arith:
		switch t.Op {
		case form.OpAdd, form.OpSub:
			my := mul
			if t.Op == form.OpSub {
				var ok bool
				if my, ok = mulOK(mul, -1); !ok {
					return false
				}
			}
			return linearize(c, t.X, mul, terms, k) && linearize(c, t.Y, my, terms, k)
		case form.OpMul:
			if n, ok := t.X.(form.Num); ok {
				m, ok := mulOK(mul, n.V)
				return ok && linearize(c, t.Y, m, terms, k)
			}
			if n, ok := t.Y.(form.Num); ok {
				m, ok := mulOK(mul, n.V)
				return ok && linearize(c, t.X, m, terms, k)
			}
		}
	}
	id, ok := c.byKey[t.String()]
	if !ok {
		id = c.add(t)
	}
	*terms = append(*terms, linTerm{node: id, coef: mul})
	return true
}

// laSystem is the linear-arithmetic side of one theory check.
type laSystem struct {
	lits []linLit

	w    int   // columns
	reps []int // column -> class representative when the system was built
	cons []int64
	neqs []int64 // rows of expressions asserted non-zero: Σ row[j]·v_j + row[w] ≠ 0
	base []int64 // cons normalized, ground rows dropped
	// baseFalse: some constraint is a false ground fact; baseOverflow:
	// normalizing one left int64.
	baseFalse, baseOverflow bool

	acc     []int64 // node id -> coefficient being summed for one literal
	mark    []bool  // node id -> in touched
	col     []int32 // node id -> column, -1 when absent
	touched []int
	sparse  []linTerm // per literal, its summed (representative, coef) pairs
	spans   []litSpan
	pos     []int
	neg     []int
	work    [2][]int64
	row     []int64
}

// litSpan locates one literal's summed pairs in laSystem.sparse.
type litSpan struct {
	from, to int
	k        int64
	skip     bool
}

func newLA(c *cc, lits []lit) *laSystem {
	la := &laSystem{lits: make([]linLit, len(lits))}
	for i, l := range lits {
		ll := &la.lits[i]
		ll.op = l.op
		ll.bad = !linearize(c, l.x, 1, &ll.terms, &ll.k) || !linearize(c, l.y, -1, &ll.terms, &ll.k)
	}
	la.acc = make([]int64, len(c.nodes))
	la.mark = make([]bool, len(c.nodes))
	la.col = make([]int32, len(c.nodes))
	return la
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
		for _, t := range ll.terms {
			if !ok {
				break
			}
			r := c.find(t.node)
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
				la.sparse = append(la.sparse, linTerm{node: r, coef: co})
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
		row[la.col[t.node]] = co
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
func sortDecimal(ids []int) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && decimalLess(ids[j], ids[j-1]); j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

func decimalLess(a, b int) bool {
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
// (size cap or int64 overflow).
func (la *laSystem) feasible(extra []int64) (feasible, precise bool) {
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

// entailsZero reports whether the base system entails expr = 0 for the
// row expr (coefficients, then the constant), i.e. both expr ≤ -1 and
// expr ≥ 1 are infeasible.
func (la *laSystem) entailsZero(expr []int64) bool {
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
// entailed equalities and merges the corresponding congruence classes.
// It reports whether any new merge happened.
func (la *laSystem) propagateEqualities(c *cc) bool {
	w, stride := la.w, la.w+1
	var vars []int // columns with a coefficient in some constraint, in order
	for j := 0; j < w; j++ {
		for off := j; off < len(la.cons); off += stride {
			if la.cons[off] != 0 {
				vars = append(vars, j)
				break
			}
		}
	}
	if len(vars) == 0 || len(vars) > maxProbeVars {
		return false
	}
	expr := make([]int64, stride)
	changed := false
	// Pairwise variable equalities.
	for i := 0; i < len(vars) && !c.failed; i++ {
		for j := i + 1; j < len(vars) && !c.failed; j++ {
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
	consts := collectConstants(c)
	for _, v := range vars {
		if c.failed {
			break
		}
		ni := la.reps[v]
		if _, has := c.classConst(ni); has {
			continue
		}
		for _, kv := range consts {
			if kv.val == math.MinInt64 {
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
	id  int
	val int64
}

func collectConstants(c *cc) []constNode {
	var out []constNode
	for _, n := range c.nodes {
		if n.parent == n.id && n.hasNum {
			out = append(out, constNode{id: n.id, val: n.numVal})
		}
	}
	return out
}
