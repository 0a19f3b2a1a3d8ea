package bdd

import "fmt"

// refManager is the map-based manager the flat-table Manager replaced,
// kept as a test-only oracle: same algorithms, same recursion order, so
// it creates the same nodes with the same ids. TestMatchesReference in
// diff_test.go drives both through one operation sequence.

const refTerminalVar = int(^uint(0) >> 1)

type refNode struct {
	v      int
	lo, hi int
}

type refTriple struct{ v, lo, hi int }

type refApplyKey struct {
	op   uint32
	a, b int
}

type refManager struct {
	nodes   []refNode
	unique  map[refTriple]int
	apply   map[refApplyKey]int
	notMemo map[int]int
	numVars int
}

func newRef(n int) *refManager {
	m := &refManager{
		unique:  map[refTriple]int{},
		apply:   map[refApplyKey]int{},
		notMemo: map[int]int{},
		numVars: n,
	}
	m.nodes = append(m.nodes, refNode{v: refTerminalVar}, refNode{v: refTerminalVar})
	return m
}

func (m *refManager) NumVars() int { return m.numVars }

func (m *refManager) AddVar() int {
	m.numVars++
	return m.numVars - 1
}

func (m *refManager) NumNodes() int { return len(m.nodes) }

func (m *refManager) mk(v, lo, hi int) int {
	if lo == hi {
		return lo
	}
	key := refTriple{v, lo, hi}
	if id, ok := m.unique[key]; ok {
		return id
	}
	id := len(m.nodes)
	m.nodes = append(m.nodes, refNode{v: v, lo: lo, hi: hi})
	m.unique[key] = id
	return id
}

func (m *refManager) Var(i int) int {
	if i >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range (%d vars)", i, m.numVars))
	}
	return m.mk(i, 0, 1)
}

func (m *refManager) Not(f int) int {
	switch f {
	case 0:
		return 1
	case 1:
		return 0
	}
	if r, ok := m.notMemo[f]; ok {
		return r
	}
	n := m.nodes[f]
	r := m.mk(n.v, m.Not(n.lo), m.Not(n.hi))
	m.notMemo[f] = r
	return r
}

func (m *refManager) And(a, b int) int     { return m.applyOp(opAnd, a, b) }
func (m *refManager) Or(a, b int) int      { return m.applyOp(opOr, a, b) }
func (m *refManager) Xor(a, b int) int     { return m.applyOp(opXor, a, b) }
func (m *refManager) Implies(a, b int) int { return m.Or(m.Not(a), b) }
func (m *refManager) Iff(a, b int) int     { return m.Not(m.Xor(a, b)) }

func (m *refManager) ite(f, g, h int) int {
	return m.Or(m.And(f, g), m.And(m.Not(f), h))
}

func (m *refManager) applyOp(op uint32, a, b int) int {
	switch op {
	case opAnd:
		if a == 0 || b == 0 {
			return 0
		}
		if a == 1 {
			return b
		}
		if b == 1 {
			return a
		}
		if a == b {
			return a
		}
	case opOr:
		if a == 1 || b == 1 {
			return 1
		}
		if a == 0 {
			return b
		}
		if b == 0 {
			return a
		}
		if a == b {
			return a
		}
	case opXor:
		if a == 0 {
			return b
		}
		if b == 0 {
			return a
		}
		if a == b {
			return 0
		}
	}
	if a > b && (op == opAnd || op == opOr || op == opXor) {
		a, b = b, a
	}
	key := refApplyKey{op, a, b}
	if r, ok := m.apply[key]; ok {
		return r
	}
	na, nb := m.nodes[a], m.nodes[b]
	v := na.v
	if nb.v < v {
		v = nb.v
	}
	alo, ahi := a, a
	if na.v == v {
		alo, ahi = na.lo, na.hi
	}
	blo, bhi := b, b
	if nb.v == v {
		blo, bhi = nb.lo, nb.hi
	}
	r := m.mk(v, m.applyOp(op, alo, blo), m.applyOp(op, ahi, bhi))
	m.apply[key] = r
	return r
}

func (m *refManager) Exists(f int, vars []int) int {
	if len(vars) == 0 {
		return f
	}
	set := map[int]bool{}
	for _, v := range vars {
		set[v] = true
	}
	memo := map[int]int{}
	return m.exists(f, set, memo)
}

func (m *refManager) exists(f int, set map[int]bool, memo map[int]int) int {
	if f <= 1 {
		return f
	}
	if r, ok := memo[f]; ok {
		return r
	}
	n := m.nodes[f]
	lo := m.exists(n.lo, set, memo)
	hi := m.exists(n.hi, set, memo)
	var r int
	if set[n.v] {
		r = m.Or(lo, hi)
	} else {
		r = m.mk(n.v, lo, hi)
	}
	memo[f] = r
	return r
}

func (m *refManager) Replace(f int, rename map[int]int) int {
	if len(rename) == 0 {
		return f
	}
	memo := map[int]int{}
	return m.replace(f, rename, memo)
}

func (m *refManager) replace(f int, rename map[int]int, memo map[int]int) int {
	if f <= 1 {
		return f
	}
	if r, ok := memo[f]; ok {
		return r
	}
	n := m.nodes[f]
	v := n.v
	if nv, ok := rename[v]; ok {
		v = nv
	}
	lo := m.replace(n.lo, rename, memo)
	hi := m.replace(n.hi, rename, memo)
	var r int
	if 0 <= v && v < m.numVars && v < m.nodes[lo].v && v < m.nodes[hi].v {
		r = m.mk(v, lo, hi)
	} else {
		r = m.ite(m.Var(v), hi, lo)
	}
	memo[f] = r
	return r
}

// AndExists follows the Manager's recursion: the same terminal cases,
// the same hand-off to And below the deepest quantified variable, low
// cofactor first, and no high cofactor once a quantified low one is true.
func (m *refManager) AndExists(a, b int, vars []int) int {
	set := map[int]bool{}
	top := -1
	for _, v := range vars {
		if v >= 0 && v < m.numVars {
			set[v] = true
			top = max(top, v)
		}
	}
	memo := map[int]int{}
	pairs := map[[2]int]int{}
	var rec func(f, g int) int
	rec = func(f, g int) int {
		switch {
		case f == 0 || g == 0:
			return 0
		case f == 1 || f == g:
			return m.exists(g, set, memo)
		case g == 1:
			return m.exists(f, set, memo)
		}
		if f > g {
			f, g = g, f
		}
		nf, ng := m.nodes[f], m.nodes[g]
		v := min(nf.v, ng.v)
		if v > top {
			return m.And(f, g)
		}
		if r, ok := pairs[[2]int{f, g}]; ok {
			return r
		}
		flo, fhi := f, f
		if nf.v == v {
			flo, fhi = nf.lo, nf.hi
		}
		glo, ghi := g, g
		if ng.v == v {
			glo, ghi = ng.lo, ng.hi
		}
		lo := rec(flo, glo)
		var r int
		switch {
		case !set[v]:
			r = m.mk(v, lo, rec(fhi, ghi))
		case lo == 1:
			r = 1
		default:
			r = m.Or(lo, rec(fhi, ghi))
		}
		pairs[[2]int{f, g}] = r
		return r
	}
	return rec(a, b)
}

func (m *refManager) Restrict(f, v int, val bool) int {
	memo := map[int]int{}
	var rec func(int) int
	rec = func(g int) int {
		if g <= 1 {
			return g
		}
		if r, ok := memo[g]; ok {
			return r
		}
		n := m.nodes[g]
		var r int
		switch {
		case n.v == v:
			if val {
				r = n.hi
			} else {
				r = n.lo
			}
		case n.v > v:
			r = g
		default:
			r = m.mk(n.v, rec(n.lo), rec(n.hi))
		}
		memo[g] = r
		return r
	}
	return rec(f)
}

// AllSat keeps the original's leaf test, forcedTrue(f, pos), inlined:
// forcedTrue ignored pos and returned f != 0.
func (m *refManager) AllSat(f int, vars []int) [][]byte {
	var out [][]byte
	cur := make([]byte, len(vars))
	var rec func(f int, idx int)
	rec = func(f int, idx int) {
		if f == 0 {
			return
		}
		if idx == len(vars) {
			if f != 0 {
				row := make([]byte, len(cur))
				copy(row, cur)
				out = append(out, row)
			}
			return
		}
		v := vars[idx]
		cur[idx] = 0
		rec(m.Restrict(f, v, false), idx+1)
		cur[idx] = 1
		rec(m.Restrict(f, v, true), idx+1)
	}
	rec(f, 0)
	return out
}
