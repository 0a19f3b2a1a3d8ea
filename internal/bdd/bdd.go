// Package bdd implements reduced ordered binary decision diagrams with the
// operations the Bebop model checker needs: boolean connectives,
// existential quantification, variable renaming, restriction,
// satisfying-assignment enumeration and evaluation. The paper's Bebop
// represents reachable-state sets and transfer functions with BDDs
// (Section 2.2).
//
// A Manager keeps its nodes in one flat store indexed by node id, with
// two tables beside it: the unique table (open-addressed node ids,
// hash-consing) and the computed table, which memoises every operation.
// The computed table is direct-mapped and lossy, as in CUDD: a lookup
// probes one slot and a store overwrites it. And, Or, Xor and Not results
// hold for the manager's lifetime; Exists, AndExists, Replace and
// Restrict stamp theirs with a generation counter, so they lapse when
// the call ends. A warm manager allocates nothing per call.
//
// Every operation recurses low cofactor before high. An evicted result
// is recomputed from nodes that already exist, so mk creates the same
// nodes in the same order whatever the table keeps: a sequence of calls
// creates the same nodes, with the same ids, on every run and at every
// table size.
package bdd

import (
	"fmt"
	"math"
	"math/bits"
)

// terminalVar orders terminals below every real variable.
const terminalVar = math.MaxInt32

// maxNodes caps the node store so that every id fits an int32 (a
// variable so tests can lower it).
var maxNodes = math.MaxInt32

// The unique table starts at 2^initialBits slots and doubles at load ½.
// The computed table has a quarter as many slots, at most maxCacheSlots
// (a power of two; a variable so tests can shrink the table to one slot).
const initialBits = 6

var maxCacheSlots = 1 << 30

type node struct {
	v      int32 // variable index
	lo, hi int32 // cofactor node ids
}

// cacheEntry is one computed-table slot: the operation tag applied to
// (a, b) gave r. Tag 0 marks an empty slot.
type cacheEntry struct {
	a, b, r int32
	tag     uint32
}

// Tags of the operations whose results hold across calls.
const (
	opAnd uint32 = 1 + iota
	opOr
	opXor
	opNot
)

// Kinds of the per-call operations, whose results depend on the call's
// variable set, renaming or restriction: their entries are tagged
// gen*8+kind, which is above every cross-call tag since gen >= 1.
const (
	kindExists uint32 = iota
	kindAndExists
	kindReplace
	kindRestrict
)

// maxGen keeps gen*8+kind within a uint32.
const maxGen = 1<<29 - 1

// Manager owns a shared node store for a set of BDDs. It is not safe for
// concurrent use.
type Manager struct {
	nodes  []node
	unique []int32 // node ids by hash of (v, lo, hi); 0 is empty
	uShift uint    // 64 - log2(len(unique))
	cache  []cacheEntry
	cShift uint // 64 - log2(len(cache))
	// The variable set of the current Exists or AndExists (and Replace's
	// renaming), by variable: a mark counts only while it equals gen.
	varGen []uint32
	varTo  []int
	// qTop is the deepest quantified variable of the current Exists or
	// AndExists (-1 for none): a node below it is left as it is.
	qTop    int32
	gen     uint32
	numVars int
}

// New returns a manager with n variables (more can be added with AddVar).
func New(n int) *Manager {
	m := &Manager{
		unique:  make([]int32, 1<<initialBits),
		uShift:  64 - initialBits,
		numVars: n,
	}
	m.resizeCache()
	// Node 0 = false, node 1 = true. Terminals never enter the unique
	// table, so id 0 can mark its empty slots.
	m.nodes = append(m.nodes, node{v: terminalVar}, node{v: terminalVar})
	return m
}

// NumVars returns the current variable count.
func (m *Manager) NumVars() int { return m.numVars }

// AddVar introduces a fresh variable (appended to the order) and returns
// its index.
func (m *Manager) AddVar() int {
	m.numVars++
	return m.numVars - 1
}

// NumNodes returns the number of allocated nodes (diagnostics).
func (m *Manager) NumNodes() int { return len(m.nodes) }

// False returns the constant false BDD.
func (m *Manager) False() int { return 0 }

// True returns the constant true BDD.
func (m *Manager) True() int { return 1 }

// IsFalse reports whether f is the constant false.
func (m *Manager) IsFalse(f int) bool { return f == 0 }

// hash3 mixes three ids into the top bits of a 64-bit word (Fibonacci
// hashing): a table of 2^k slots indexes by the top k bits.
func hash3(a, b, c int32) uint64 {
	h := uint64(uint32(a))<<32 | uint64(uint32(b))
	h ^= uint64(uint32(c)) * 0xC2B2AE3D27D4EB4F
	return h * 0x9E3779B97F4A7C15
}

// find returns the unique-table slot that holds node (v, lo, hi), or the
// empty slot where it belongs.
func (m *Manager) find(v, lo, hi int32) uint64 {
	mask := uint64(len(m.unique) - 1)
	for i := hash3(lo, hi, v) >> m.uShift; ; i = (i + 1) & mask {
		id := m.unique[i]
		if id == 0 {
			return i
		}
		if n := m.nodes[id]; n.v == v && n.lo == lo && n.hi == hi {
			return i
		}
	}
}

func (m *Manager) mk(v, lo, hi int32) int32 {
	if lo == hi {
		return lo
	}
	i := m.find(v, lo, hi)
	if id := m.unique[i]; id != 0 {
		return id
	}
	if len(m.nodes) >= maxNodes {
		panic(fmt.Sprintf("bdd: node store full at %d nodes (node ids are int32)", len(m.nodes)))
	}
	id := int32(len(m.nodes))
	m.nodes = append(m.nodes, node{v: v, lo: lo, hi: hi})
	m.unique[i] = id
	if 2*(len(m.nodes)-2) > len(m.unique) {
		// Double and re-insert in id order; no node is equal to another,
		// so find returns an empty slot for each.
		m.unique = make([]int32, 2*len(m.unique))
		m.uShift--
		for j := 2; j < len(m.nodes); j++ {
			n := m.nodes[j]
			m.unique[m.find(n.v, n.lo, n.hi)] = int32(j)
		}
		m.resizeCache()
	}
	return id
}

// resizeCache sizes the computed table to a quarter of the unique table
// and re-inserts its cross-call entries (a later one evicts an earlier
// one from a shared slot). Per-call entries are dropped, which costs only
// recomputation.
func (m *Manager) resizeCache() {
	n := max(1, min(len(m.unique)/4, maxCacheSlots))
	if n == len(m.cache) {
		return
	}
	old := m.cache
	m.cache = make([]cacheEntry, n)
	m.cShift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, e := range old {
		if e.tag != 0 && e.tag <= opNot {
			*m.slot(e.a, e.b, e.tag) = e
		}
	}
}

// slot returns the computed-table slot of (a, b) under tag.
func (m *Manager) slot(a, b int32, tag uint32) *cacheEntry {
	return &m.cache[hash3(a, b, int32(tag))>>m.cShift]
}

// lookup returns the cached result of (a, b) under tag, if the slot
// still holds it.
func (m *Manager) lookup(a, b int32, tag uint32) (int32, bool) {
	e := m.slot(a, b, tag)
	return e.r, e.tag == tag && e.a == a && e.b == b
}

// store caches r for (a, b) under tag, evicting the slot's entry. The
// slot is found afresh, after the recursion that computed r may have
// resized the table.
func (m *Manager) store(a, b int32, tag uint32, r int32) int32 {
	*m.slot(a, b, tag) = cacheEntry{a: a, b: b, r: r, tag: tag}
	return r
}

// Var returns the BDD for variable i. Every node's variable is thus in
// [0, NumVars), which the variable-indexed scratch relies on.
func (m *Manager) Var(i int) int {
	if i < 0 || i >= m.numVars {
		panic(fmt.Sprintf("bdd: variable %d out of range (%d vars)", i, m.numVars))
	}
	return int(m.mk(int32(i), 0, 1))
}

// Not returns ¬f.
func (m *Manager) Not(f int) int { return int(m.not(int32(f))) }

func (m *Manager) not(f int32) int32 {
	switch f {
	case 0:
		return 1
	case 1:
		return 0
	}
	if r, ok := m.lookup(f, 0, opNot); ok {
		return r
	}
	n := m.nodes[f]
	return m.store(f, 0, opNot, m.mk(n.v, m.not(n.lo), m.not(n.hi)))
}

// And returns a ∧ b.
func (m *Manager) And(a, b int) int { return int(m.applyOp(opAnd, int32(a), int32(b))) }

// Or returns a ∨ b.
func (m *Manager) Or(a, b int) int { return int(m.applyOp(opOr, int32(a), int32(b))) }

// Xor returns a ⊕ b.
func (m *Manager) Xor(a, b int) int { return int(m.applyOp(opXor, int32(a), int32(b))) }

// Implies returns a → b.
func (m *Manager) Implies(a, b int) int { return m.Or(m.Not(a), b) }

// Iff returns a ↔ b.
func (m *Manager) Iff(a, b int) int { return m.Not(m.Xor(a, b)) }

// ite returns if f then g else h.
func (m *Manager) ite(f, g, h int32) int32 {
	return m.applyOp(opOr, m.applyOp(opAnd, f, g), m.applyOp(opAnd, m.not(f), h))
}

func (m *Manager) applyOp(op uint32, a, b int32) int32 {
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
	if a > b {
		a, b = b, a // all three ops commute: canonical order doubles cache hits
	}
	if r, ok := m.lookup(a, b, op); ok {
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
	return m.store(a, b, op, m.mk(v, m.applyOp(op, alo, blo), m.applyOp(op, ahi, bhi)))
}

// begin starts a per-call traversal: a fresh generation lapses every
// per-call entry and variable mark at once. When the generation would
// overflow its tag bits, it restarts at 1 and the per-call entries and
// marks of the old generations are dropped. Traversals never nest.
func (m *Manager) begin() {
	m.gen++
	if m.gen > maxGen {
		for i := range m.cache {
			if m.cache[i].tag > opNot {
				m.cache[i] = cacheEntry{}
			}
		}
		clear(m.varGen)
		m.gen = 1
	}
	if n := m.numVars; len(m.varGen) < n {
		m.varGen = append(m.varGen, make([]uint32, n-len(m.varGen))...)
		m.varTo = append(m.varTo, make([]int, n-len(m.varTo))...)
	}
}

// Exists existentially quantifies the given variables out of f.
func (m *Manager) Exists(f int, vars []int) int {
	if len(vars) == 0 {
		return f
	}
	m.quantify(vars)
	return int(m.exists(int32(f)))
}

// quantify starts a traversal that quantifies vars: it marks each one
// and records the deepest in qTop.
func (m *Manager) quantify(vars []int) {
	m.begin()
	m.qTop = -1
	for _, v := range vars {
		// A variable no node can carry changes nothing.
		if v >= 0 && v < m.numVars {
			m.varGen[v] = m.gen
			m.qTop = max(m.qTop, int32(v))
		}
	}
}

func (m *Manager) exists(f int32) int32 {
	if f <= 1 {
		return f
	}
	n := m.nodes[f]
	if n.v > m.qTop {
		return f // no quantified variable below
	}
	tag := m.gen<<3 | kindExists
	if r, ok := m.lookup(f, 0, tag); ok {
		return r
	}
	lo := m.exists(n.lo)
	hi := m.exists(n.hi)
	if m.varGen[n.v] == m.gen {
		return m.store(f, 0, tag, m.applyOp(opOr, lo, hi))
	}
	return m.store(f, 0, tag, m.mk(n.v, lo, hi))
}

// AndExists returns ∃vars (a ∧ b), the relational product, in one
// traversal (CUDD's Cudd_bddAndAbstract): a variable is quantified as
// soon as the conjunction reaches it, so the full conjunction is never
// built. It equals Exists(And(a, b), vars).
func (m *Manager) AndExists(a, b int, vars []int) int {
	m.quantify(vars)
	return int(m.andExists(int32(a), int32(b)))
}

func (m *Manager) andExists(f, g int32) int32 {
	switch {
	case f == 0 || g == 0:
		return 0
	case f == 1 || f == g:
		return m.exists(g)
	case g == 1:
		return m.exists(f)
	}
	if f > g {
		f, g = g, f // ∧ commutes: canonical order doubles memo hits
	}
	nf, ng := m.nodes[f], m.nodes[g]
	v := min(nf.v, ng.v)
	if v > m.qTop {
		return m.applyOp(opAnd, f, g) // nothing left to quantify
	}
	tag := m.gen<<3 | kindAndExists
	if r, ok := m.lookup(f, g, tag); ok {
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
	lo := m.andExists(flo, glo)
	switch {
	case m.varGen[v] != m.gen:
		return m.store(f, g, tag, m.mk(v, lo, m.andExists(fhi, ghi)))
	case lo == 1:
		return m.store(f, g, tag, 1) // lo ∨ anything
	}
	return m.store(f, g, tag, m.applyOp(opOr, lo, m.andExists(fhi, ghi)))
}

// Replace renames variables in f according to the map (variables not in
// the map are unchanged). Implemented by Shannon recomposition, which is
// correct for arbitrary (injective) renamings regardless of order; where
// the new variable still sits above both rebuilt cofactors, as in an
// order-preserving renaming, the node is made directly.
func (m *Manager) Replace(f int, rename map[int]int) int {
	if len(rename) == 0 {
		return f
	}
	m.begin()
	for v, nv := range rename {
		if v >= 0 && v < m.numVars {
			m.varGen[v] = m.gen
			m.varTo[v] = nv
		}
	}
	return int(m.replace(int32(f)))
}

func (m *Manager) replace(f int32) int32 {
	if f <= 1 {
		return f
	}
	tag := m.gen<<3 | kindReplace
	if r, ok := m.lookup(f, 0, tag); ok {
		return r
	}
	n := m.nodes[f]
	v := int(n.v)
	if m.varGen[n.v] == m.gen {
		v = m.varTo[v]
	}
	lo := m.replace(n.lo)
	hi := m.replace(n.hi)
	if nv := int32(v); 0 <= v && v < m.numVars && nv < m.nodes[lo].v && nv < m.nodes[hi].v {
		return m.store(f, 0, tag, m.mk(nv, lo, hi))
	}
	return m.store(f, 0, tag, m.ite(int32(m.Var(v)), hi, lo))
}

// Restrict fixes variable v to value val in f.
func (m *Manager) Restrict(f, v int, val bool) int {
	m.begin()
	return int(m.restrict(int32(f), v, val))
}

func (m *Manager) restrict(g int32, v int, val bool) int32 {
	if g <= 1 {
		return g
	}
	n := m.nodes[g]
	switch {
	case int(n.v) == v:
		if val {
			return n.hi
		}
		return n.lo
	case int(n.v) > v:
		return g
	}
	tag := m.gen<<3 | kindRestrict
	if r, ok := m.lookup(g, 0, tag); ok {
		return r
	}
	return m.store(g, 0, tag, m.mk(n.v, m.restrict(n.lo, v, val), m.restrict(n.hi, v, val)))
}

// Eval evaluates f under a total assignment (indexed by variable; a
// variable past its end reads false) with one walk from the root, and
// creates no nodes.
func (m *Manager) Eval(f int, assignment []bool) bool {
	for f > 1 {
		n := m.nodes[f]
		if int(n.v) < len(assignment) && assignment[n.v] {
			f = int(n.hi)
		} else {
			f = int(n.lo)
		}
	}
	return f == 1
}

// AllSat enumerates satisfying assignments of f projected onto vars: each
// result maps (by position) to 0, 1. Variables outside the BDD's support
// are expanded, so every returned vector is a concrete assignment.
func (m *Manager) AllSat(f int, vars []int) [][]byte {
	var out [][]byte
	cur := make([]byte, len(vars))
	var rec func(f int, idx int)
	rec = func(f int, idx int) {
		if f == 0 {
			return
		}
		if idx == len(vars) {
			// Every projected variable is restricted away and f is not
			// false, so the row is satisfiable.
			row := make([]byte, len(cur))
			copy(row, cur)
			out = append(out, row)
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
