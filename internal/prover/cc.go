package prover

// congruence closure over the term DAG.
//
// Every term is a node labelled with a function symbol and child nodes:
// variables and integer constants are nullary, *x is deref(x), x->f is
// sel_f(x), x[i] is idx(x,i), &x is addr(x), and arithmetic operators are
// uninterpreted at this layer (the linear arithmetic solver interprets
// them; congruence over them is still sound). Distinct integer constants
// and distinct variable addresses carry implicit disequalities.
//
// Nodes are keyed by the compiled table's key ids and signatures by
// (label, argument classes), so a check hashes no string. A node is
// created the first time a check adds its key, recursing into the
// children only then, so node ids follow the order of first addition.
// The storage is reset, not reallocated, between checks.

type ccNode struct {
	key    int32 // key id, to reset nodeOf
	term   int32 // the compiled term first added under key; -1 for *(&v)
	label  int32 // function symbol; -1 for a nullary node
	args   [2]int32
	parent int32 // union-find
	size   int32 // class size, maintained at the representative
	// use list: parents that mention this node's class as an argument,
	// maintained at the representative as a chain through cc.uses
	useHead, useTail int32
	// constant value if this class contains an integer literal
	hasNum bool
	numVal int64
	// addrVar is the variable's key id when this class holds addr(v) for
	// a variable v (used for address distinctness), else -1.
	addrVar int32
}

// useLink is one entry of a use list.
type useLink struct {
	node, next int32
}

// sigKey is a congruence signature: the label and the argument classes.
type sigKey struct {
	label, a0, a1 int32
}

type cc struct {
	terms   []cterm
	nodes   []ccNode
	nodeOf  []int32 // key id -> node id, -1 when absent
	bySig   map[sigKey]int32
	uses    []useLink
	pending [][2]int32
	failed  bool
	// diseqs: pairs of node ids asserted unequal.
	diseqs [][2]int32
	unions int64 // class merges made
}

// reset empties the closure for a check over the given table snapshot.
func (c *cc) reset(snap termSnap) {
	for i := range c.nodes {
		c.nodeOf[c.nodes[i].key] = -1
	}
	for len(c.nodeOf) < snap.nkeys {
		c.nodeOf = append(c.nodeOf, -1)
	}
	if c.bySig == nil {
		c.bySig = map[sigKey]int32{}
	}
	clear(c.bySig)
	c.terms = snap.terms
	c.nodes, c.uses, c.pending, c.diseqs = c.nodes[:0], c.uses[:0], c.pending[:0], c.diseqs[:0]
	c.failed, c.unions = false, 0
}

func (c *cc) find(i int32) int32 {
	root := i
	for c.nodes[root].parent != root {
		root = c.nodes[root].parent
	}
	for c.nodes[i].parent != i {
		next := c.nodes[i].parent
		c.nodes[i].parent = root
		i = next
	}
	return root
}

func (c *cc) newNode(term, key, label, a0, a1 int32) int32 {
	id := int32(len(c.nodes))
	c.nodes = append(c.nodes, ccNode{key: key, term: term, label: label, args: [2]int32{a0, a1},
		parent: id, size: 1, useHead: -1, useTail: -1, addrVar: -1})
	c.nodeOf[key] = id
	for _, a := range [2]int32{a0, a1} {
		if a >= 0 {
			c.addUse(c.find(a), id)
		}
	}
	c.addSig(id)
	return id
}

// addUse appends u to the use list of representative r.
func (c *cc) addUse(r, u int32) {
	e := int32(len(c.uses))
	c.uses = append(c.uses, useLink{node: u, next: -1})
	n := &c.nodes[r]
	if n.useTail < 0 {
		n.useHead = e
	} else {
		c.uses[n.useTail].next = e
	}
	n.useTail = e
}

func (c *cc) sig(i int32) sigKey {
	n := &c.nodes[i]
	s := sigKey{label: n.label, a0: c.find(n.args[0]), a1: -1}
	if n.args[1] >= 0 {
		s.a1 = c.find(n.args[1])
	}
	return s
}

// addSig registers the node's congruence signature, scheduling a merge if
// another node already has it.
func (c *cc) addSig(i int32) {
	if c.nodes[i].label < 0 {
		return
	}
	s := c.sig(i)
	if j, ok := c.bySig[s]; ok {
		if c.find(i) != c.find(j) {
			c.pending = append(c.pending, [2]int32{i, j})
		}
		return
	}
	c.bySig[s] = i
}

// add interns a compiled term, returning its node id.
func (c *cc) add(t int32) int32 {
	ct := &c.terms[t]
	if id := c.nodeOf[ct.key]; id >= 0 {
		return id
	}
	if ct.label < 0 {
		id := c.newNode(t, ct.key, -1, -1, -1)
		c.nodes[id].hasNum, c.nodes[id].numVal = ct.isNum, ct.num
		return id
	}
	x, y := c.add(ct.args[0]), int32(-1)
	if ct.args[1] >= 0 {
		y = c.add(ct.args[1])
	}
	id := c.newNode(t, ct.key, ct.label, x, y)
	if ct.addrVar >= 0 {
		c.nodes[id].addrVar = ct.addrVar
		// &v is never NULL: assert addr(v) != 0.
		zero := c.add(zeroTerm)
		c.diseqs = append(c.diseqs, [2]int32{id, zero})
		// The cell of v holds *&v ≡ v: intern deref(&v) under its own
		// key (the simplifier would collapse the term, defeating the
		// axiom) and merge it with v so p = &v lets congruence derive
		// *p = v.
		dv := c.nodeOf[ct.derefKey]
		if dv < 0 {
			dv = c.newNode(-1, ct.derefKey, labelDeref, id, -1)
		}
		c.pending = append(c.pending, [2]int32{dv, x})
		c.propagate()
	}
	return id
}

// merge asserts equality of two terms.
func (c *cc) merge(a, b int32) {
	if c.failed {
		return
	}
	i, j := c.add(a), c.add(b)
	c.mergeIDs(i, j)
}

// mergeIDs asserts equality of two interned nodes.
func (c *cc) mergeIDs(i, j int32) {
	if c.failed {
		return
	}
	c.pending = append(c.pending, [2]int32{i, j})
	c.propagate()
}

// disequal asserts a != b.
func (c *cc) disequal(a, b int32) {
	if c.failed {
		return
	}
	i, j := c.add(a), c.add(b)
	c.diseqs = append(c.diseqs, [2]int32{i, j})
	c.propagate()
}

func (c *cc) propagate() {
	for len(c.pending) > 0 && !c.failed {
		pair := c.pending[len(c.pending)-1]
		c.pending = c.pending[:len(c.pending)-1]
		c.union(pair[0], pair[1])
	}
	c.checkDiseqs()
}

func (c *cc) union(i, j int32) {
	ri, rj := c.find(i), c.find(j)
	if ri == rj {
		return
	}
	// Keep the larger class as representative.
	if c.nodes[ri].size < c.nodes[rj].size {
		ri, rj = rj, ri
	}
	ni, nj := &c.nodes[ri], &c.nodes[rj]
	// Constant propagation: merging two classes with different constants
	// is a conflict.
	if ni.hasNum && nj.hasNum && ni.numVal != nj.numVal {
		c.failed = true
		return
	}
	// Address distinctness: &a = &b for distinct variables is a conflict,
	// and an address constant can never be NULL (0).
	if ni.addrVar >= 0 && nj.addrVar >= 0 && ni.addrVar != nj.addrVar {
		c.failed = true
		return
	}
	if (ni.addrVar >= 0 && nj.hasNum && nj.numVal == 0) ||
		(nj.addrVar >= 0 && ni.hasNum && ni.numVal == 0) {
		c.failed = true
		return
	}

	c.unions++
	nj.parent = ri
	ni.size += nj.size
	if nj.hasNum {
		ni.hasNum, ni.numVal = true, nj.numVal
	}
	if nj.addrVar >= 0 {
		ni.addrVar = nj.addrVar
	}
	// Recompute signatures of parents of the absorbed class, after moving
	// its use list to the end of the representative's.
	h := nj.useHead
	if h < 0 {
		return
	}
	if ni.useTail < 0 {
		ni.useHead = h
	} else {
		c.uses[ni.useTail].next = h
	}
	ni.useTail = nj.useTail
	nj.useHead, nj.useTail = -1, -1
	for e := h; e >= 0; e = c.uses[e].next {
		c.addSig(c.uses[e].node)
	}
}

func (c *cc) checkDiseqs() {
	if c.failed {
		return
	}
	for _, d := range c.diseqs {
		if c.find(d[0]) == c.find(d[1]) {
			c.failed = true
			return
		}
	}
}

// classConst returns the integer constant of the class of node i, if any.
func (c *cc) classConst(i int32) (int64, bool) {
	r := c.find(i)
	return c.nodes[r].numVal, c.nodes[r].hasNum
}
