package prover

import (
	"fmt"
	"strconv"

	"predabs/internal/form"
)

// congruence closure over the term DAG.
//
// Every term is a node labelled with a function symbol and child nodes:
// variables and integer constants are nullary, *x is deref(x), x->f is
// sel_f(x), x[i] is idx(x,i), &x is addr(x), and arithmetic operators are
// uninterpreted at this layer (the linear arithmetic solver interprets
// them; congruence over them is still sound). Distinct integer constants
// and distinct variable addresses carry implicit disequalities.

type ccNode struct {
	id     int
	label  string // function symbol or constant spelling
	args   []int
	parent int // union-find
	// members of the class, maintained at the representative
	classMembers []int
	// use lists: parents that mention this node as an argument
	uses []int
	// constant value if this class contains an integer literal
	hasNum bool
	numVal int64
	// addrVar is the variable name when this node is addr(v) for a
	// variable v (used for address distinctness).
	addrVar string
}

type cc struct {
	nodes   []*ccNode
	byKey   map[string]int // canonical term string -> node id
	bySig   map[string]int // congruence signature -> node id
	pending [][2]int
	failed  bool
	failMsg string
	// diseqs: pairs of node ids asserted unequal.
	diseqs [][2]int
}

func newCC() *cc {
	return &cc{byKey: map[string]int{}, bySig: map[string]int{}}
}

func (c *cc) find(i int) int {
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

func (c *cc) newNode(key, label string, args []int) int {
	id := len(c.nodes)
	n := &ccNode{id: id, label: label, args: args, parent: id}
	n.classMembers = []int{id}
	c.nodes = append(c.nodes, n)
	c.byKey[key] = id
	for _, a := range args {
		ar := c.find(a)
		c.nodes[ar].uses = append(c.nodes[ar].uses, id)
	}
	c.addSig(id)
	return id
}

func (c *cc) sig(i int) string {
	n := c.nodes[i]
	s := n.label
	for _, a := range n.args {
		s += "|" + strconv.Itoa(c.find(a))
	}
	return s
}

// addSig registers the node's congruence signature, scheduling a merge if
// another node already has it.
func (c *cc) addSig(i int) {
	if len(c.nodes[i].args) == 0 {
		return
	}
	s := c.sig(i)
	if j, ok := c.bySig[s]; ok {
		if c.find(i) != c.find(j) {
			c.pending = append(c.pending, [2]int{i, j})
		}
		return
	}
	c.bySig[s] = i
}

// add interns a term, returning its node id.
func (c *cc) add(t form.Term) int {
	key := t.String()
	if id, ok := c.byKey[key]; ok {
		return id
	}
	switch t := t.(type) {
	case form.Num:
		id := c.newNode(key, key, nil)
		c.nodes[id].hasNum = true
		c.nodes[id].numVal = t.V
		return id
	case form.Var:
		return c.newNode(key, "v:"+t.Name, nil)
	case form.Deref:
		x := c.add(t.X)
		return c.newNode(key, "deref", []int{x})
	case form.Sel:
		x := c.add(t.X)
		return c.newNode(key, "sel:"+t.Field, []int{x})
	case form.Idx:
		x := c.add(t.X)
		i := c.add(t.I)
		return c.newNode(key, "idx", []int{x, i})
	case form.AddrOf:
		x := c.add(t.X)
		id := c.newNode(key, "addr", []int{x})
		if v, ok := t.X.(form.Var); ok {
			c.nodes[id].addrVar = v.Name
			// &v is never NULL: assert addr(v) != 0.
			zero := c.add(form.Num{V: 0})
			c.diseqs = append(c.diseqs, [2]int{id, zero})
			// The cell of v holds *&v ≡ v: intern deref(&v) and merge
			// with v so p = &v lets congruence derive *p = v.
			dv := c.addDerefOfAddr(t.X, id)
			c.pending = append(c.pending, [2]int{dv, x})
			c.propagate()
		}
		return id
	case form.Neg:
		x := c.add(t.X)
		return c.newNode(key, "neg", []int{x})
	case form.Arith:
		x := c.add(t.X)
		y := c.add(t.Y)
		return c.newNode(key, "op:"+t.Op.String(), []int{x, y})
	}
	return c.newNode(key, "opaque:"+key, nil)
}

// addDerefOfAddr interns the term *(&x) as a node without source-level
// simplification (the simplifier would collapse it, defeating the axiom).
func (c *cc) addDerefOfAddr(x form.Term, addrID int) int {
	key := "*(&" + x.String() + ")"
	if id, ok := c.byKey[key]; ok {
		return id
	}
	return c.newNode(key, "deref", []int{addrID})
}

// merge asserts equality of two terms.
func (c *cc) merge(a, b form.Term) {
	if c.failed {
		return
	}
	i, j := c.add(a), c.add(b)
	c.pending = append(c.pending, [2]int{i, j})
	c.propagate()
}

// mergeIDs asserts equality of two interned nodes.
func (c *cc) mergeIDs(i, j int) {
	if c.failed {
		return
	}
	c.pending = append(c.pending, [2]int{i, j})
	c.propagate()
}

// disequal asserts a != b.
func (c *cc) disequal(a, b form.Term) {
	if c.failed {
		return
	}
	i, j := c.add(a), c.add(b)
	c.diseqs = append(c.diseqs, [2]int{i, j})
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

func (c *cc) union(i, j int) {
	ri, rj := c.find(i), c.find(j)
	if ri == rj {
		return
	}
	ni, nj := c.nodes[ri], c.nodes[rj]
	// Keep the class with more members as representative.
	if len(ni.classMembers) < len(nj.classMembers) {
		ri, rj = rj, ri
		ni, nj = nj, ni
	}
	// Constant propagation: merging two classes with different constants
	// is a conflict.
	if ni.hasNum && nj.hasNum && ni.numVal != nj.numVal {
		c.fail(fmt.Sprintf("constants %d and %d merged", ni.numVal, nj.numVal))
		return
	}
	// Address distinctness: &a = &b for distinct variables is a conflict,
	// and an address constant can never be NULL (0).
	if ni.addrVar != "" && nj.addrVar != "" && ni.addrVar != nj.addrVar {
		c.fail(fmt.Sprintf("addresses &%s and &%s merged", ni.addrVar, nj.addrVar))
		return
	}
	if (ni.addrVar != "" && nj.hasNum && nj.numVal == 0) ||
		(nj.addrVar != "" && ni.hasNum && ni.numVal == 0) {
		c.fail("address merged with NULL")
		return
	}

	c.nodes[rj].parent = ri
	ni.classMembers = append(ni.classMembers, nj.classMembers...)
	if nj.hasNum {
		ni.hasNum, ni.numVal = true, nj.numVal
	}
	if nj.addrVar != "" {
		ni.addrVar = nj.addrVar
	}
	// Recompute signatures of parents of the absorbed class.
	uses := nj.uses
	nj.uses = nil
	ni.uses = append(ni.uses, uses...)
	for _, u := range uses {
		c.addSig(u)
	}
}

func (c *cc) checkDiseqs() {
	if c.failed {
		return
	}
	for _, d := range c.diseqs {
		if c.find(d[0]) == c.find(d[1]) {
			c.fail(fmt.Sprintf("disequality violated: %s = %s",
				c.nodes[d[0]].label, c.nodes[d[1]].label))
			return
		}
	}
}

func (c *cc) fail(msg string) {
	c.failed = true
	c.failMsg = msg
}

// classConst returns the integer constant of the class of node i, if any.
func (c *cc) classConst(i int) (int64, bool) {
	r := c.find(i)
	return c.nodes[r].numVal, c.nodes[r].hasNum
}
