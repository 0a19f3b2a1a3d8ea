package prover

import (
	"encoding/binary"
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
	atom int32 // canonical atom id
	flip bool  // the atom is the negation of the canonical base atom
	// lits are the compiled theory literal ids of the atom being true and
	// false.
	lits [2]int32
}

// program is a set of compiled formulas over one canonical atom table: a
// single query's, or every assertion of a session.
type program struct {
	tab   *termTable
	nodes []cnode
	occs  []occurrence
	ids   map[int32]int32 // prover-wide atom key id -> atom id
}

func newProgram(tab *termTable) *program {
	return &program{tab: tab, ids: map[int32]int32{}}
}

// occurrence interns a compiled comparison's canonical atom.
func (pr *program) occurrence(e atomEntry) occurrence {
	id, ok := pr.ids[e.akey]
	if !ok {
		id = int32(len(pr.ids))
		pr.ids[e.akey] = id
	}
	return occurrence{atom: id, flip: e.flip, lits: e.lits}
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
		pr.occs = append(pr.occs, pr.occurrence(pr.tab.atom(f)))
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
	tree []cnode      // pr.nodes
	occs []occurrence // pr.occs
	st   satState
	// gaveUp: dfs abandoned the search on the leaf budget or a
	// wall-clock stop, so it proved no unsatisfiability.
	gaveUp bool

	// sess, when set, is the session whose Check runs this search: at a
	// leaf, branch on its still-unassigned tracked atoms before the theory
	// check, and at the first consistent leaf keep the values of its
	// tracked formulas in val. A give-up then reads as "no model" rather
	// than "maybe satisfiable".
	sess *Session
	val  []bool

	// dom, when set, is the Domain whose check of cube against goal this
	// search runs for: its first consistent leaf's counter-model
	// (modelOf), valued over dom's literals, joins dom's store.
	dom  *Domain
	goal *Goal
	cube []Lit

	snap   termSnap // the compiled table, as of the search's start
	assign []int8   // atom id -> 0 unassigned, +1 / -1 canonical base true / false
	trail  []int32  // assigned atom ids, in order
	lits   []int32  // the path's compiled theory literals, the theory memo key
	open   []int32  // stack of each open node's still-undetermined roots
	keyBuf []byte   // the query's cache key, then the theory memo key

	// The query's conjunct list: the indices and strings of the distinct
	// conjuncts it keeps (keep) and the roots it searches.
	parts []int32
	strs  []string
	roots []int32

	nodes, leaves, memoHits int64
	eff                     theoryEffort
}

// searcherPool keeps searchers, and their buffers, between queries.
var searcherPool = sync.Pool{New: func() any { return new(searcher) }}

func getSearcher() *searcher { return searcherPool.Get().(*searcher) }

// reset readies a pooled searcher for one search of pr as it stands;
// pr's formulas must be compiled.
func (s *searcher) reset(p *Prover, pr *program) {
	s.p, s.tree, s.occs, s.snap = p, pr.nodes, pr.occs, pr.tab.snapshot()
	s.assign = resize(s.assign, len(pr.ids))
	s.trail, s.lits, s.open = s.trail[:0], s.lits[:0], s.open[:0]
	s.st, s.gaveUp = satState{}, false
	s.nodes, s.leaves, s.memoHits, s.eff = 0, 0, 0, theoryEffort{}
}

// release returns a pooled searcher, dropping what it referenced.
func (s *searcher) release() {
	s.p, s.tree, s.occs, s.snap = nil, nil, nil, termSnap{}
	s.sess, s.val = nil, nil
	s.dom, s.goal, s.cube = nil, nil, nil
	clear(s.strs)
	searcherPool.Put(s)
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
		return s.sess == nil
	}
	base := len(s.open)
	defer func() { s.open = s.open[:base] }()
	v, occ, open := s.evalRoots(roots)
	switch v {
	case triFalse:
		return false
	case triTrue:
		if s.sess != nil {
			for i := range s.sess.atoms {
				o := &s.sess.atoms[i]
				if s.assign[o.atom] != 0 {
					continue
				}
				// val is the truth of the atom as first seen, so a tracked
				// predicate is tried true-first even when its canonical
				// base is its negation.
				for _, val := range [2]bool{true, false} {
					if s.branch(open, o, val) {
						return true
					}
				}
				return false
			}
		}
		s.st.budget--
		s.leaves++
		if s.sess == nil {
			if s.dom != nil {
				return s.leafModel()
			}
			return theoryConsistent(s.snap, s.lits, &s.eff)
		}
		ok, hit := s.p.theoryCheck(s.snap, s.lits, &s.keyBuf, &s.eff)
		if hit {
			s.memoHits++
		}
		if ok {
			// Every tracked atom is assigned, so every tracked formula
			// has a value.
			s.val = make([]bool, len(s.sess.roots))
			for i, r := range s.sess.roots {
				v, _ := s.eval(r)
				s.val[i] = v == triTrue
			}
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

// leafModel is theoryConsistent for a search that keeps counter-models:
// a consistent leaf's model, when one checks out, is stored in the
// domain before the theory state goes back to its pool.
func (s *searcher) leafModel() bool {
	th := theoryPool.Get().(*theory)
	ok := th.check(s.snap, s.lits, &s.eff)
	if ok {
		if val, kept := s.modelOf(th); kept {
			s.dom.store(s.goal, s.cube, val, &th.m)
		}
	}
	theoryPool.Put(th)
	return ok
}

// branch assigns the occurrence's atom so that the occurrence reads val,
// extends the path with the matching literal and searches the roots below.
func (s *searcher) branch(roots []int32, o *occurrence, val bool) bool {
	l := o.lits[0]
	if !val {
		l = o.lits[1]
	}
	if val != o.flip { // the canonical base atom's truth
		s.assign[o.atom] = 1
	} else {
		s.assign[o.atom] = -1
	}
	n := len(s.lits)
	s.trail = append(s.trail, o.atom)
	s.lits = append(s.lits, l)
	found := s.dfs(roots)
	s.assign[o.atom] = 0
	s.trail, s.lits = s.trail[:n], s.lits[:n]
	return found
}

// theoryCheck decides a session leaf's literal conjunction through the
// prover-wide memo, keyed by the compiled literal sequence. The theory
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
func (p *Prover) theoryCheck(snap termSnap, ids []int32, buf *[]byte, eff *theoryEffort) (consistent, hit bool) {
	b := (*buf)[:0]
	for _, id := range ids {
		b = binary.AppendUvarint(b, uint64(id))
	}
	*buf = b
	if v, ok := p.get(&p.memo, b); ok {
		return v, true
	}
	v := theoryConsistent(snap, ids, eff)
	p.put(&p.memo, string(b), v)
	return v, false
}
