package prover

import (
	"cmp"
	"math"
	"slices"

	"predabs/internal/form"
)

// Counter-models. A cube check that fails — Valid(cube, g) finds a
// theory-consistent leaf of cube ∧ ¬g, or Unsat(cube) one of the cube —
// holds most of a concrete model of its query in that leaf's theory
// state: the integer witness of the arithmetic columns, each class's
// constant, and the congruence classes of every other term. The model
// gives every term an integer and every uninterpreted symbol (deref,
// each field selection, idx, addr and nonlinear *, / and %) a finite
// table keyed by argument values; +, -, negation and scaling by a
// numeral are computed. It is kept only when it checks out as a model
// of the prover's semantics: each table entry agrees with every term
// that reads it (congruence), the computed operators match, the
// addresses of distinct variables are distinct and non-NULL with
// *(&v) == v, and the query's own roots are true.
//
// The prover is sound for exactly that semantics, so no later query
// the model satisfies can be proved valid or unsatisfiable: every later
// cube whose literals the model makes true is answered "not implied"
// (or "satisfiable") without a search. The model therefore evaluates
// every literal of its domain, extending the tables with fresh values
// for terms the leaf never met, and is kept in its domain's store: it
// answers the checks of every goal of the domain that it falsifies, not
// only the goal whose search found it.

// freshGap spaces the values given to terms the witness leaves free, so
// that small offsets of one (x+1 for a fresh x) stay clear of another.
const freshGap = 1 << 20

// tabEntry is one row of a function table: label(a0, a1) = v, with a1
// 0 for a unary symbol.
type tabEntry struct {
	label  int32
	a0, a1 int64
	v      int64
}

// cmodel is one model under construction. Its storage lives in the
// pooled theory state and is reused from leaf to leaf.
type cmodel struct {
	snap termSnap
	c    *cc
	la   *laSystem

	gen    uint32
	keyGen []uint32 // key id -> gen when keyVal holds the key's value
	keyVal []int64
	clsGen []uint32 // representative node -> gen when clsVal holds its class's value
	clsVal []int64
	seen   []int32 // the terms valued, each key once, in order
	tab    []tabEntry
	fresh  int64
	bad    bool // a value left int64
}

// start readies m to value the terms of th's consistent leaf over snap.
// Fresh values start past every witness value and class constant.
func (m *cmodel) start(snap termSnap, th *theory) {
	m.c, m.la = &th.c, &th.la
	m.begin(snap, len(th.c.nodes))
	top := int64(0)
	for _, v := range m.la.wit[:m.la.w] {
		top = max(top, absSat(v))
	}
	for i := range th.c.nodes {
		if n := &th.c.nodes[i]; n.hasNum {
			top = max(top, absSat(n.numVal))
		}
	}
	m.freshFrom(top)
}

// load readies m as a stored model, its valued terms vals and its table
// rows, over snap, which may hold terms the model never valued: value
// gives them values past every stored one.
func (m *cmodel) load(snap termSnap, vals []modelVal, rows []tabEntry) {
	m.c, m.la = nil, nil
	m.begin(snap, 0)
	m.tab = append(m.tab, rows...)
	top := int64(0)
	for _, mv := range vals {
		key := snap.terms[mv.term].key
		m.keyGen[key], m.keyVal[key] = m.gen, mv.val
		m.seen = append(m.seen, mv.term)
		top = max(top, absSat(mv.val))
	}
	m.freshFrom(top)
}

// begin empties m for a model over snap whose leaf has nodes congruence
// nodes.
func (m *cmodel) begin(snap termSnap, nodes int) {
	m.snap = snap
	if m.gen++; m.gen == 0 {
		clear(m.keyGen)
		clear(m.clsGen)
		m.gen = 1
	}
	m.keyGen, m.keyVal = growTo(m.keyGen, snap.nkeys), growTo(m.keyVal, snap.nkeys)
	m.clsGen, m.clsVal = growTo(m.clsGen, nodes), growTo(m.clsVal, nodes)
	m.seen, m.tab = m.seen[:0], m.tab[:0]
}

// freshFrom starts the fresh values past top, the largest magnitude the
// model holds so far.
func (m *cmodel) freshFrom(top int64) {
	m.fresh = top - top%freshGap + freshGap
	m.bad = top > math.MaxInt64/2
}

// growTo extends buf to at least n slots, keeping its contents.
func growTo[T any](buf []T, n int) []T {
	if len(buf) < n {
		buf = append(buf, make([]T, n-len(buf))...)
	}
	return buf
}

func absSat(v int64) int64 {
	if v == math.MinInt64 {
		return math.MaxInt64
	}
	return max(v, -v)
}

// newFresh returns the next fresh value, freshGap past the last one.
func (m *cmodel) newFresh() int64 {
	v := m.fresh
	if v > math.MaxInt64-freshGap {
		m.bad = true
		return 0
	}
	m.fresh += freshGap
	return v
}

// class returns the representative of node's class and, once it is
// settled, the class's value: its constant, its witness column, or what
// setClass gave it. A class the arithmetic never saw is settled by its
// first valued member: computed for an arithmetic one, fresh otherwise.
func (m *cmodel) class(node int32) (r int32, v int64, ok bool) {
	r = m.c.find(node)
	if m.clsGen[r] == m.gen {
		return r, m.clsVal[r], true
	}
	switch n := &m.c.nodes[r]; {
	case n.hasNum:
		v = n.numVal
	case int(r) < len(m.la.col) && m.la.col[r] >= 0:
		v = m.la.wit[m.la.col[r]]
	default:
		return r, 0, false
	}
	m.clsGen[r], m.clsVal[r] = m.gen, v
	return r, v, true
}

func (m *cmodel) setClass(r int32, v int64) {
	m.clsGen[r], m.clsVal[r] = m.gen, v
}

// node returns the leaf's congruence node of a key, or -1; a stored
// model, which has no leaf, has none.
func (m *cmodel) node(key int32) int32 {
	if m.c != nil && int(key) < len(m.c.nodeOf) {
		return m.c.nodeOf[key]
	}
	return -1
}

// computed reports whether the model computes a term from its
// arguments rather than reading a table: +, -, negation, and * with a
// numeral operand, exactly the terms linearization interprets.
func (m *cmodel) computed(ct *cterm) bool {
	switch ct.label {
	case labelArith + int32(form.OpAdd), labelArith + int32(form.OpSub), labelNeg:
		return true
	case labelArith + int32(form.OpMul):
		return m.snap.terms[ct.args[0]].isNum || m.snap.terms[ct.args[1]].isNum
	}
	return false
}

// compute applies a computed term's operator to argument values; ok is
// false when the result leaves int64.
func compute(label int32, a, b int64) (int64, bool) {
	switch label {
	case labelArith + int32(form.OpAdd):
		return addOK(a, b)
	case labelArith + int32(form.OpSub):
		if b == math.MinInt64 {
			return 0, false
		}
		return addOK(a, -b)
	case labelNeg:
		return mulOK(a, -1)
	}
	return mulOK(a, b)
}

// lookup finds label(a0, a1) in the tables.
func (m *cmodel) lookup(label int32, a0, a1 int64) (int64, bool) {
	for i := range m.tab {
		if e := &m.tab[i]; e.label == label && e.a0 == a0 && e.a1 == a1 {
			return e.v, true
		}
	}
	return 0, false
}

// enter records label(a0, a1) = v unless the tables already hold that
// application; a disagreeing entry is left for check to reject.
func (m *cmodel) enter(label int32, a0, a1, v int64) {
	if _, ok := m.lookup(label, a0, a1); !ok {
		m.tab = append(m.tab, tabEntry{label: label, a0: a0, a1: a1, v: v})
	}
}

// args values a compound term's arguments.
func (m *cmodel) args(ct *cterm) (a0, a1 int64) {
	a0 = m.value(ct.args[0])
	if ct.args[1] >= 0 {
		a1 = m.value(ct.args[1])
	}
	return a0, a1
}

// value returns term t's value, giving it one on first sight: a numeral
// its own, a computed term the operator's result, a term the leaf met
// its class's value, and any other term its table entry or, failing
// that, a fresh value. The address of a variable v also enters the
// axiom *(&v) == v into the deref table.
func (m *cmodel) value(t int32) int64 {
	ct := &m.snap.terms[t]
	if m.keyGen[ct.key] == m.gen {
		return m.keyVal[ct.key]
	}
	var v int64
	node := m.node(ct.key)
	switch {
	case ct.isNum:
		v = ct.num
	case m.computed(ct):
		a0, a1 := m.args(ct)
		var ok bool
		if v, ok = compute(ct.label, a0, a1); !ok {
			m.bad = true
		}
		if node >= 0 {
			if r, _, known := m.class(node); !known {
				m.setClass(r, v)
			}
		}
	default: // a variable or an application
		var a0, a1 int64
		if ct.label >= 0 {
			a0, a1 = m.args(ct)
		}
		known := false
		if node >= 0 {
			var r int32
			if r, v, known = m.class(node); !known {
				v, known = m.newFresh(), true
				m.setClass(r, v)
			}
		} else if ct.label >= 0 {
			v, known = m.lookup(ct.label, a0, a1)
		}
		if !known {
			v = m.newFresh()
		}
		if ct.label >= 0 {
			m.enter(ct.label, a0, a1, v)
		}
		if ct.addrVar >= 0 {
			m.enter(labelDeref, v, 0, a0)
		}
	}
	m.keyGen[ct.key], m.keyVal[ct.key] = m.gen, v
	m.seen = append(m.seen, t)
	return v
}

// leaf values every term of the leaf's congruence closure: the computed
// ones first, so that a class the arithmetic never saw takes an
// arithmetic member's value rather than a fresh one.
func (m *cmodel) leaf(th *theory) {
	for pass := 0; pass < 2; pass++ {
		for i := range th.c.nodes {
			if t := th.c.nodes[i].term; t >= 0 && (pass == 1 || m.computed(&m.snap.terms[t])) {
				m.value(t)
			}
		}
	}
}

// holds evaluates a compiled literal.
func (m *cmodel) holds(id int32) bool {
	l := &m.snap.lits[id]
	x, y := m.value(l.x), m.value(l.y)
	switch l.op {
	case form.Eq:
		return x == y
	case form.Ne:
		return x != y
	case form.Le:
		return x <= y
	}
	return x < y
}

// eval evaluates the compiled formula rooted at i, every atom of it, so
// that every term it mentions is valued.
func (m *cmodel) eval(tree []cnode, occs []occurrence, i int32) bool {
	n := &tree[i]
	switch n.kind {
	case nodeTrue:
		return true
	case nodeFalse:
		return false
	case nodeAtom:
		return m.holds(occs[n.occ].lits[0])
	}
	and := n.kind == nodeAnd
	v := and
	for c := i + 1; c < n.end; c = tree[c].end {
		if m.eval(tree, occs, c) != and {
			v = !and
		}
	}
	return v
}

// check reports whether the valued terms form a model of the prover's
// semantics: no value left int64, each numeral holds itself, each
// computed term its operator's result and each application its table
// entry, and each variable's address is non-NULL, differs from every
// other variable's and maps back to the variable through deref. It
// re-derives every value from the tables rather than trusting how they
// were built.
func (m *cmodel) check() bool {
	return m.checkFrom(0)
}

// checkFrom is check for a model whose terms seen[:from] already checked
// out: values and table rows added since cannot change what they read.
func (m *cmodel) checkFrom(from int) bool {
	if m.bad {
		return false
	}
	for i := from; i < len(m.seen); i++ {
		t := m.seen[i]
		ct := &m.snap.terms[t]
		v := m.keyVal[ct.key]
		switch {
		case ct.isNum:
			if v != ct.num {
				return false
			}
		case ct.label < 0:
		case m.computed(ct):
			a0, a1 := m.keyVal[m.snap.terms[ct.args[0]].key], int64(0)
			if ct.args[1] >= 0 {
				a1 = m.keyVal[m.snap.terms[ct.args[1]].key]
			}
			if w, ok := compute(ct.label, a0, a1); !ok || w != v {
				return false
			}
		default:
			a0, a1 := m.keyVal[m.snap.terms[ct.args[0]].key], int64(0)
			if ct.args[1] >= 0 {
				a1 = m.keyVal[m.snap.terms[ct.args[1]].key]
			}
			if w, ok := m.lookup(ct.label, a0, a1); !ok || w != v {
				return false
			}
			if ct.addrVar < 0 {
				continue
			}
			if w, ok := m.lookup(labelDeref, v, 0); v == 0 || !ok || w != a0 {
				return false
			}
			for _, u := range m.seen[:i] {
				cu := &m.snap.terms[u]
				if cu.addrVar >= 0 && cu.addrVar != ct.addrVar && m.keyVal[cu.key] == v {
					return false
				}
			}
		}
	}
	return true
}

// modelOf builds the model of a consistent leaf whose theory state is
// th and returns its valuation of the domain's predicates (bit i set
// when predicate i holds), or ok false when no model checks out. The
// leaf's literals and the query's roots must all hold.
func (s *searcher) modelOf(th *theory) (val uint64, ok bool) {
	m := &th.m
	if !m.build(s.snap, th, s.lits) {
		return 0, false
	}
	for _, r := range s.roots {
		if !m.eval(s.tree, s.occs, r) {
			return 0, false
		}
	}
	// A predicate's negative literal, NNF(¬p), has p's terms and the
	// opposite value, so the positive literals decide the valuation.
	d := s.dom
	for i := range len(d.lits) / 2 {
		if m.conj(s, d, &d.lits[2*i]) {
			val |= 1 << i
		}
	}
	if !m.check() {
		return 0, false
	}
	if modelHook != nil {
		modelHook(m, val)
	}
	return val, true
}

// modelHook, when non-nil, observes every counter-model a search keeps,
// with its valuation of the domain's predicates. Tests set it to check
// the model against an independent evaluator; it must be set before
// queries start.
var modelHook func(m *cmodel, val uint64)

// build values the terms of th's consistent leaf and reports whether
// every literal of the leaf holds. It needs the leaf's final classes and
// witness (th.fixed).
func (m *cmodel) build(snap termSnap, th *theory, lits []int32) bool {
	if !th.fixed {
		return false
	}
	m.start(snap, th)
	m.leaf(th)
	for _, id := range lits {
		if !m.holds(id) {
			return false
		}
	}
	return true
}

// conj evaluates a domain literal: the conjunction of its parts.
func (m *cmodel) conj(s *searcher, d *Domain, l *domLit) bool {
	v := true
	for _, part := range d.parts[l.from:l.to] {
		v = m.eval(s.tree, s.occs, part.root) && v
	}
	return v
}

// The model store. A Domain keeps every counter-model its checks found,
// in one arena: each model's valued terms (term id and value) and table
// rows are spans of the domain's vals and rows. Every model values every
// predicate of the domain, so its valuation is one word, and a cube is
// inside it when each literal agrees with it.
//
// A goal's pool is the set of valuations of the stored models that
// falsify the goal: those its own checks found, and those of other
// goals' checks under which its negated root evaluates true (every model
// counts for the Unsat goal). The domain numbers its distinct
// valuations, so a goal skips a model whose valuation its pool holds
// with one bit test. The models of a round of checks are kept as they
// are found, and join the store only when the round ends (EndRound):
// sorted by the cube whose check found them, then by their goal's
// creation. A goal then catches up on the models it has not seen,
// between rounds.

// modelVal is one valued term of a stored model.
type modelVal struct {
	term int32
	val  int64
}

// storedModel is one model of the store: the goal whose check found it,
// that check's cube (a span of the round's cube literals, for ordering),
// its spans of the domain's vals and rows, its valuation and the
// valuation's number in the domain.
type storedModel struct {
	g                *Goal
	cube, vals, rows [2]int32
	val              uint64
	vid              int32
}

// valNum numbers one distinct valuation of a domain's models.
type valNum struct {
	val uint64
	vid int32
}

// store keeps the model m that the check of cube against g found, with
// its valuation, until the round ends.
func (d *Domain) store(g *Goal, cube []Lit, val uint64, m *cmodel) {
	sm := storedModel{g: g, val: val}
	sm.cube[0], sm.vals[0], sm.rows[0] = int32(len(d.roundLits)), int32(len(d.vals)), int32(len(d.rows))
	d.roundLits = append(d.roundLits, cube...)
	for _, t := range m.seen {
		d.vals = append(d.vals, modelVal{term: t, val: m.keyVal[m.snap.terms[t].key]})
	}
	d.rows = append(d.rows, m.tab...)
	sm.cube[1], sm.vals[1], sm.rows[1] = int32(len(d.roundLits)), int32(len(d.vals)), int32(len(d.rows))
	d.models = append(d.models, sm)
}

// EndRound ends a round of checks over the domain: the models they
// found join the store, in candidate order (the cubes' enumeration
// order: by predicate, the positive literal first), then in their goals'
// creation order, and each of goals catches up on the store.
func (d *Domain) EndRound(goals ...*Goal) {
	slices.SortStableFunc(d.models[d.joined:], func(a, b storedModel) int {
		if c := cubeCmp(d.roundLits[a.cube[0]:a.cube[1]], d.roundLits[b.cube[0]:b.cube[1]]); c != 0 {
			return c
		}
		return int(a.g.idx - b.g.idx)
	})
	for i := range d.models[d.joined:] {
		d.models[d.joined+i].vid = d.number(d.models[d.joined+i].val)
	}
	d.joined, d.roundLits = len(d.models), d.roundLits[:0]
	for _, g := range goals {
		d.catchUp(g)
	}
}

// catchUp adds to g's pool the valuations of the stored models it has
// not seen that falsify it.
func (d *Domain) catchUp(g *Goal) {
	var th *theory // the evaluations' scratch, over snap
	var snap termSnap
	for ; g.seen < d.joined; g.seen++ {
		sm := &d.models[g.seen]
		w, bit := int(sm.vid/64), uint64(1)<<(sm.vid%64)
		if w < len(g.has) && g.has[w]&bit != 0 {
			continue
		}
		switch {
		case sm.g == g:
			g.own = append(g.own, sm.val)
		case g.f == nil:
			g.cross = append(g.cross, sm.val)
		default:
			if th == nil {
				if g.root < 0 {
					g.root = d.pr.compile(g.f, true)
				}
				th, snap = theoryPool.Get().(*theory), d.p.terms.snapshot()
				defer theoryPool.Put(th)
			}
			if !d.falsifies(&th.m, snap, sm, g) {
				continue
			}
			g.cross = append(g.cross, sm.val)
		}
		g.has = growTo(g.has, w+1)
		g.has[w] |= bit
	}
}

// falsifies evaluates g's negated root under the stored model, in m and
// over snap, valuing the terms the model never met, and reports whether
// it holds in a model that still checks out.
func (d *Domain) falsifies(m *cmodel, snap termSnap, sm *storedModel, g *Goal) bool {
	d.p.modelEvals.Add(1)
	m.load(snap, d.vals[sm.vals[0]:sm.vals[1]], d.rows[sm.rows[0]:sm.rows[1]])
	n := len(m.seen)
	return m.eval(d.pr.nodes, d.pr.occs, g.root) && m.checkFrom(n)
}

// number returns the number of a valuation among the domain's distinct
// valuations, numbering it next when it is new.
func (d *Domain) number(val uint64) int32 {
	i, ok := slices.BinarySearchFunc(d.valNums, val, func(n valNum, v uint64) int { return cmp.Compare(n.val, v) })
	if !ok {
		d.valNums = slices.Insert(d.valNums, i, valNum{val: val, vid: int32(len(d.valNums))})
	}
	return d.valNums[i].vid
}

// masks returns the cube's positive and negative literal bitmasks.
func masks(cube []Lit) (pos, neg uint64) {
	for _, l := range cube {
		if l.Pos {
			pos |= 1 << l.Pred
		} else {
			neg |= 1 << l.Pred
		}
	}
	return pos, neg
}

// inside reports whether a valuation in set makes every literal of the
// cube with bitmasks pos and neg true.
func inside(set []uint64, pos, neg uint64) bool {
	for _, v := range set {
		if pos&^v == 0 && neg&v == 0 {
			return true
		}
	}
	return false
}

// Covers reports whether a model in g's pool makes every literal of the
// cube true: whether a check of the cube against g, made in the same
// round without an injected fault, is answered without a search. cross
// reports that only valuations that joined the pool from another goal's
// models do.
func (g *Goal) Covers(cube []Lit) (covered, cross bool) {
	pos, neg := masks(cube)
	if inside(g.own, pos, neg) {
		return true, false
	}
	covered = inside(g.cross, pos, neg)
	return covered, covered
}

// covers is Covers without the origin, for the check's hot path.
func (g *Goal) covers(cube []Lit) bool {
	covered, _ := g.Covers(cube)
	return covered
}

// cubeCmp orders cubes of one size as enumerateCubes generates them.
func cubeCmp(a, b []Lit) int {
	for i := range min(len(a), len(b)) {
		if a[i].Pred != b[i].Pred {
			return a[i].Pred - b[i].Pred
		}
		if a[i].Pos != b[i].Pos {
			if a[i].Pos {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}
