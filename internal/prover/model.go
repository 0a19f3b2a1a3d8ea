package prover

import (
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
// for terms the leaf never met, and its pool keeps only the two
// bitmasks of the literals it makes true.

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
	m.snap, m.c, m.la = snap, &th.c, &th.la
	if m.gen++; m.gen == 0 {
		clear(m.keyGen)
		clear(m.clsGen)
		m.gen = 1
	}
	m.keyGen, m.keyVal = growTo(m.keyGen, snap.nkeys), growTo(m.keyVal, snap.nkeys)
	m.clsGen, m.clsVal = growTo(m.clsGen, len(th.c.nodes)), growTo(m.clsVal, len(th.c.nodes))
	m.seen, m.tab, m.bad = m.seen[:0], m.tab[:0], false
	top := int64(0)
	for _, v := range m.la.wit[:m.la.w] {
		top = max(top, absSat(v))
	}
	for i := range th.c.nodes {
		if n := &th.c.nodes[i]; n.hasNum {
			top = max(top, absSat(n.numVal))
		}
	}
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

// node returns the leaf's congruence node of a key, or -1.
func (m *cmodel) node(key int32) int32 {
	if int(key) < len(m.c.nodeOf) {
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
	if m.bad {
		return false
	}
	for i, t := range m.seen {
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
// th and returns the bitmasks of the domain literals it makes true, or
// ok false when no model checks out. The leaf's literals and the
// query's roots must all hold.
func (s *searcher) modelOf(th *theory) (pos, neg uint64, ok bool) {
	m := &th.m
	if !m.build(s.snap, th, s.lits) {
		return 0, 0, false
	}
	for _, r := range s.roots {
		if !m.eval(s.tree, s.occs, r) {
			return 0, 0, false
		}
	}
	// A predicate's negative literal, NNF(¬p), has p's terms and the
	// opposite value, so the positive literals decide both masks.
	d := s.dom
	n := len(d.lits) / 2
	for i := 0; i < n; i++ {
		if m.conj(s, d, &d.lits[2*i]) {
			pos |= 1 << i
		}
	}
	neg = ^pos & (1<<n - 1)
	if !m.check() {
		return 0, 0, false
	}
	if modelHook != nil {
		modelHook(m, pos, neg)
	}
	return pos, neg, true
}

// modelHook, when non-nil, observes every counter-model a search keeps,
// with its literal bitmasks. Tests set it to check the model against an
// independent evaluator; it must be set before queries start.
var modelHook func(m *cmodel, pos, neg uint64)

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

// A Goal's models are the literal bitmasks of the counter-models its
// failed checks found, each valuation once. Checks read them without
// locking; the models of a round's checks wait in the domain's pending
// list, under its mutex, and join their goals only when the round ends
// (Domain.EndRound), so that within a round every check sees the same
// models whatever the worker count.

// pendingModel is a model staged during a round: its goal, the cube
// whose check found it (pendingLits[from:to], for ordering) and its
// bitmasks.
type pendingModel struct {
	g        *Goal
	from, to int32
	val      [2]uint64
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

// Covers reports whether one of g's counter-models makes every literal
// of the cube true: whether a check of the cube against g, made in the
// same round without an injected fault, is answered without a search.
func (g *Goal) Covers(cube []Lit) bool {
	if len(g.models) == 0 {
		return false
	}
	pos, neg := masks(cube)
	for _, v := range g.models {
		if pos&^v[0] == 0 && neg&^v[1] == 0 {
			return true
		}
	}
	return false
}

// stage keeps a model that the check of cube against g found until the
// round ends.
func (d *Domain) stage(g *Goal, cube []Lit, pos, neg uint64) {
	d.mu.Lock()
	from := int32(len(d.pendingLits))
	d.pendingLits = append(d.pendingLits, cube...)
	d.pending = append(d.pending, pendingModel{g: g, from: from, to: int32(len(d.pendingLits)), val: [2]uint64{pos, neg}})
	d.mu.Unlock()
}

// EndRound ends a round of checks over the domain: the counter-models
// they found join their goals, in candidate order (the cubes'
// enumeration order: by predicate, the positive literal first), each
// valuation once per goal. Call it when no check of the round is still
// running.
func (d *Domain) EndRound() {
	if len(d.pending) == 0 {
		return
	}
	slices.SortFunc(d.pending, func(a, b pendingModel) int {
		return cubeCmp(d.pendingLits[a.from:a.to], d.pendingLits[b.from:b.to])
	})
	for _, pm := range d.pending {
		if g := pm.g; !slices.Contains(g.models, pm.val) {
			g.models = append(g.models, pm.val)
		}
	}
	clear(d.pending)
	d.pending, d.pendingLits = d.pending[:0], d.pendingLits[:0]
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
