package prover

import (
	"encoding/binary"
	"hash/maphash"
	"sync"

	"predabs/internal/form"
)

// The search compiles each query once. A formula becomes a preorder array
// of nodes whose atoms are interned to dense canonical ids; the DPLL
// search then evaluates that array under an assignment vector in
// three-valued logic instead of rebuilding the formula at every node.
//
// The compiled search visits exactly the tree that substituting and
// constant-folding the NNF formula would (the original design, kept as a
// test oracle): a node's three-valued value is what folding would leave
// of it, and the branching atom is the first unassigned atom, in
// depth-first order, of a subtree that is still undetermined — the first
// atom of the folded formula. Branches go true before false on the atom
// occurrence as it appears in NNF, so every theory leaf receives the same
// literal sequence.

type nodeKind uint8

const (
	nodeAnd nodeKind = iota
	nodeOr
	nodeAtom
	nodeTrue
	nodeFalse
)

// cnode is one compiled formula node. The children of an And/Or node at
// index i start at i+1; each child's subtree ends where its next sibling
// begins.
type cnode struct {
	kind nodeKind
	end  int32 // one past the last node of this subtree
	occ  int32 // nodeAtom: index into the occurrence table
}

// occurrence is one atom as it appears in NNF, with its canonical atom.
type occurrence struct {
	cmp  form.Cmp
	atom int32 // canonical atom id
	flip bool  // cmp is the negation of the canonical base atom
	// lits caches the interned theory literal ids of cmp being true and
	// false (-1 until a model search first branches on it).
	lits [2]int32
}

// program is a set of compiled formulas over one canonical atom table: a
// single query's, or every assertion of a session.
type program struct {
	nodes []cnode
	occs  []occurrence
	ids   map[string]int32 // canonical atom key -> atom id
	keys  []string         // atom id -> canonical atom key
}

func newProgram() *program {
	return &program{ids: map[string]int32{}}
}

// atom interns a canonical atom key.
func (pr *program) atom(key string) int32 {
	id, ok := pr.ids[key]
	if !ok {
		id = int32(len(pr.keys))
		pr.ids[key] = id
		pr.keys = append(pr.keys, key)
	}
	return id
}

// compile appends f (negated when neg is set) in negation normal form and
// returns its root. Pushing negations inward here is NNF without building
// the intermediate formula.
func (pr *program) compile(f form.Formula, neg bool) int32 {
	i := int32(len(pr.nodes))
	switch f := f.(type) {
	case form.TrueF:
		pr.leaf(neg, nodeFalse, nodeTrue)
	case form.FalseF:
		pr.leaf(neg, nodeTrue, nodeFalse)
	case form.Cmp:
		if neg {
			f = form.Cmp{Op: f.Op.Negate(), X: f.X, Y: f.Y}
		}
		key, flip := atomKey(f)
		pr.occs = append(pr.occs, occurrence{cmp: f, atom: pr.atom(key), flip: flip, lits: [2]int32{-1, -1}})
		pr.nodes = append(pr.nodes, cnode{kind: nodeAtom, end: i + 1, occ: int32(len(pr.occs) - 1)})
	case form.Not:
		return pr.compile(f.F, !neg)
	case form.And:
		pr.nodes = append(pr.nodes, cnode{kind: pick(neg, nodeOr, nodeAnd)})
		for _, g := range f.Fs {
			pr.compile(g, neg)
		}
		pr.nodes[i].end = int32(len(pr.nodes))
	case form.Or:
		pr.nodes = append(pr.nodes, cnode{kind: pick(neg, nodeAnd, nodeOr)})
		for _, g := range f.Fs {
			pr.compile(g, neg)
		}
		pr.nodes[i].end = int32(len(pr.nodes))
	default:
		panic("prover: unknown formula type")
	}
	return i
}

func (pr *program) leaf(neg bool, ifNeg, ifPos nodeKind) {
	i := int32(len(pr.nodes))
	pr.nodes = append(pr.nodes, cnode{kind: pick(neg, ifNeg, ifPos), end: i + 1})
}

func pick(neg bool, ifNeg, ifPos nodeKind) nodeKind {
	if neg {
		return ifNeg
	}
	return ifPos
}

// tri is a three-valued truth value.
type tri int8

const (
	triFalse   tri = -1
	triUnknown tri = 0
	triTrue    tri = 1
)

// searcher is one DPLL search over a compiled program.
type searcher struct {
	p    *Prover
	pr   *program
	tree []cnode      // pr.nodes
	occs []occurrence // pr.occs
	st   satState
	// gaveUp: dfs abandoned the search on the leaf budget or a
	// wall-clock stop, so it proved no unsatisfiability.
	gaveUp bool

	// models selects Session.Check's search: at a leaf, branch on the
	// still-unassigned tracked atoms before the theory check, and keep a
	// model of the first consistent leaf. A give-up then reads as "no
	// model" rather than "maybe satisfiable".
	models  bool
	tracked []trackedAtom
	model   *Model

	assign []int8  // atom id -> 0 unassigned, +1 / -1 canonical base true / false
	trail  []int32 // assigned atom ids, in order
	lits   []lit   // the path's theory literals
	litIDs []int32 // their interned ids, the theory memo key (model search only)
	open   []int32 // stack of each open node's still-undetermined roots
	keyBuf []byte

	nodes, leaves, memoHits int64
}

func newSearcher(p *Prover, pr *program) *searcher {
	return &searcher{p: p, pr: pr, tree: pr.nodes, occs: pr.occs, assign: make([]int8, len(pr.keys))}
}

// eval returns the three-valued value of the subtree at i and, when it is
// undetermined, its first unassigned atom occurrence in depth-first order
// among undetermined subtrees.
func (s *searcher) eval(i int32) (tri, int32) {
	n := &s.tree[i]
	switch n.kind {
	case nodeTrue:
		return triTrue, -1
	case nodeFalse:
		return triFalse, -1
	case nodeAtom:
		o := &s.occs[n.occ]
		switch a := s.assign[o.atom]; {
		case a == 0:
			return triUnknown, n.occ
		case (a > 0) != o.flip:
			return triTrue, -1
		}
		return triFalse, -1
	}
	decisive := triFalse // a false child decides an And
	if n.kind == nodeOr {
		decisive = triTrue
	}
	first := int32(-1)
	for c := i + 1; c < n.end; c = s.tree[c].end {
		v, occ := s.eval(c)
		if v == decisive {
			return decisive, -1
		}
		if v == triUnknown && first < 0 {
			first = occ
		}
	}
	if first < 0 {
		return -decisive, -1
	}
	return triUnknown, first
}

// evalRoots evaluates the conjunction of the given roots and returns the
// ones still undetermined. Extending an assignment never changes a
// determined value, so a root found true stays true below this node and
// the children need only evaluate the returned ones.
func (s *searcher) evalRoots(roots []int32) (tri, int32, []int32) {
	base := len(s.open)
	first := int32(-1)
	for _, r := range roots {
		v, occ := s.eval(r)
		switch {
		case v == triFalse:
			return triFalse, -1, nil // the caller drops what was appended
		case v == triUnknown:
			if first < 0 {
				first = occ
			}
			s.open = append(s.open, r)
		}
	}
	open := s.open[base:]
	if first < 0 {
		return triTrue, -1, open
	}
	return triUnknown, first, open
}

// dfs searches below the current assignment, whose formula is the
// conjunction of roots. It reports whether a theory-consistent leaf was
// found, or — outside model search — whether the search gave up (the
// caller must then not claim unsatisfiability).
func (s *searcher) dfs(roots []int32) bool {
	s.nodes++
	s.st.tick()
	if s.st.budget <= 0 || s.st.stop != stopNone {
		s.gaveUp = true
		return !s.models
	}
	base := len(s.open)
	defer func() { s.open = s.open[:base] }()
	v, occ, open := s.evalRoots(roots)
	switch v {
	case triFalse:
		return false
	case triTrue:
		if s.models {
			for i := range s.tracked {
				ta := &s.tracked[i]
				if s.assign[ta.atom] != 0 {
					continue
				}
				// val is the truth of the atom as registered, so a tracked
				// predicate is tried true-first even when its canonical
				// base is its negation.
				for _, val := range [2]bool{true, false} {
					if s.branch(open, &ta.occurrence, val) {
						return true
					}
				}
				return false
			}
		}
		s.st.budget--
		s.leaves++
		if !s.models {
			return theoryConsistent(s.lits)
		}
		ok, hit := s.p.theoryCheck(s.lits, s.litIDs, &s.keyBuf)
		if hit {
			s.memoHits++
		}
		if ok {
			s.model = s.snapshot()
		}
		return ok
	}
	for _, val := range [2]bool{true, false} {
		if s.branch(open, &s.occs[occ], val) {
			return true
		}
	}
	return false
}

// branch assigns the occurrence's atom so that the occurrence reads val,
// extends the path with the matching literal and searches the roots below.
func (s *searcher) branch(roots []int32, o *occurrence, val bool) bool {
	l := litOf(o.cmp, val)
	if val != o.flip { // the canonical base atom's truth
		s.assign[o.atom] = 1
	} else {
		s.assign[o.atom] = -1
	}
	n := len(s.lits)
	s.trail = append(s.trail, o.atom)
	s.lits = append(s.lits, l)
	if s.models {
		slot := 0
		if !val {
			slot = 1
		}
		if o.lits[slot] < 0 {
			o.lits[slot] = s.p.lits.intern(l)
		}
		s.litIDs = append(s.litIDs, o.lits[slot])
	}
	found := s.dfs(roots)
	s.assign[o.atom] = 0
	s.trail, s.lits = s.trail[:n], s.lits[:n]
	if s.models {
		s.litIDs = s.litIDs[:n]
	}
	return found
}

// snapshot copies the path's assignment into an immutable model.
func (s *searcher) snapshot() *Model {
	m := &Model{assign: make(map[string]bool, len(s.trail))}
	for _, a := range s.trail {
		m.assign[s.pr.keys[a]] = s.assign[a] > 0
	}
	return m
}

// litTable interns theory literals prover-wide, structurally (terms are
// comparable values), so that equal literal sequences from different
// sessions share theory-memo entries.
type litTable struct {
	mu  sync.RWMutex
	ids map[lit]int32
}

func (t *litTable) intern(l lit) int32 {
	t.mu.RLock()
	id, ok := t.ids[l]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok = t.ids[l]; !ok {
		if t.ids == nil {
			t.ids = map[lit]int32{}
		}
		id = int32(len(t.ids))
		t.ids[l] = id
	}
	return id
}

// memoShard is one stripe of the theory-leaf memo.
type memoShard struct {
	mu sync.RWMutex
	m  map[string]bool
}

// theoryCheck decides a session leaf's literal conjunction through the
// prover-wide memo, keyed by the interned literal sequence. The theory
// check is a pure function of that sequence, so a memoized answer is
// exactly the one a recomputation would give, and the search tree is the
// same with or without the memo. Like the query cache, the memo grows by
// at most one entry per theory check actually run.
//
// Only session searches use it: each Check re-explores the branches that
// earlier blocking clauses closed, so most of its leaves repeat (92% on
// the drivers), while a one-shot query's leaves rarely recur once the
// query cache has answered the repeated queries (6–10% on the corpus),
// too few to pay for the key and the locks.
func (p *Prover) theoryCheck(lits []lit, ids []int32, buf *[]byte) (consistent, hit bool) {
	b := (*buf)[:0]
	for _, id := range ids {
		b = binary.AppendUvarint(b, uint64(id))
	}
	*buf = b
	sh := &p.memo[maphash.Bytes(p.seed, b)&(cacheShards-1)]
	sh.mu.RLock()
	v, ok := sh.m[string(b)]
	sh.mu.RUnlock()
	if ok {
		return v, true
	}
	v = theoryConsistent(lits)
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = map[string]bool{}
	}
	sh.m[string(b)] = v
	sh.mu.Unlock()
	return v, false
}
