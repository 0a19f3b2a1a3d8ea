package prover

import (
	"sync"

	"predabs/internal/form"
)

// The compiled table: every comparison a Prover meets is compiled once,
// prover-wide, into its canonical atom and the theory literals of it
// holding and failing. Terms are interned structurally to dense ids, and
// each also gets a key id for its canonical string, so the theory leaf
// (theory.go) runs on integers: no term is rendered, no string is hashed
// and no literal is re-linearized at a leaf.
//
// Key ids, not term ids, name the congruence closure's nodes: Num{-1}
// and Neg{Num{1}} both print "-1" and share one node, built from
// whichever a leaf adds first, exactly as the string-keyed closure did.
//
// Entries are immutable once published. The table only grows, under its
// write lock; a search reads a snapshot of the term and literal slices,
// taken after its formulas were compiled, without locking.

// Function symbols of compound terms, the congruence closure's
// signature labels. Field selections take one label per field name, from
// labelField on.
const (
	labelDeref int32 = iota
	labelIdx
	labelAddr
	labelNeg
	labelArith // plus the operator
	labelField = labelArith + int32(form.OpMod) + 1
)

// zeroTerm is the term id of Num{0} (NULL), interned first.
const zeroTerm = 0

// cterm is one compiled term.
type cterm struct {
	key   int32    // id of the canonical string
	label int32    // function symbol; -1 for a variable or constant
	args  [2]int32 // argument term ids, -1 when absent
	num   int64
	isNum bool
	// For &v of a variable v: v's key, for address distinctness, and the
	// key of the cell *(&v) that the closure equates with v; else -1.
	addrVar, derefKey int32
}

// clit is one compiled theory literal x op y, with x − y linearized once:
// opaque summands over term ids, in linearization order, plus a constant.
type clit struct {
	op   form.RelOp // Eq, Ne, Le or Lt
	x, y int32
	lin  []linTerm
	k    int64
	bad  bool // the linear form overflowed: the literal stays out of LA
}

// atomEntry is one comparison's compilation.
type atomEntry struct {
	akey int32 // id of the canonical atom key (atomKey)
	flip bool  // the comparison is the negation of the canonical base
	lits [2]int32
}

// termTable is a Prover's compiled table.
type termTable struct {
	mu      sync.RWMutex
	atoms   map[form.Cmp]atomEntry
	akeys   map[string]int32
	litIDs  map[lit]int32
	termIDs map[form.Term]int32
	keys    map[string]int32
	fields  map[string]int32
	terms   []cterm
	lits    []clit
}

// termSnap is a search's read-only view of the table.
type termSnap struct {
	terms []cterm
	lits  []clit
	nkeys int
}

func newTermTable() *termTable {
	t := &termTable{
		atoms:   map[form.Cmp]atomEntry{},
		akeys:   map[string]int32{},
		litIDs:  map[lit]int32{},
		termIDs: map[form.Term]int32{},
		keys:    map[string]int32{},
		fields:  map[string]int32{},
	}
	t.term(form.Num{V: 0})
	return t
}

// atom returns c's compilation, compiling it on first sight.
func (t *termTable) atom(c form.Cmp) atomEntry {
	t.mu.RLock()
	e, ok := t.atoms[c]
	t.mu.RUnlock()
	if ok {
		return e
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok = t.atoms[c]; ok {
		return e
	}
	key, flip := atomKey(c)
	ak, ok := t.akeys[key]
	if !ok {
		ak = int32(len(t.akeys))
		t.akeys[key] = ak
	}
	e = atomEntry{akey: ak, flip: flip, lits: [2]int32{t.lit(litOf(c, true)), t.lit(litOf(c, false))}}
	t.atoms[c] = e
	return e
}

// snapshot returns the table as it stands: every comparison compiled so
// far, with all its terms and literals.
func (t *termTable) snapshot() termSnap {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return termSnap{terms: t.terms, lits: t.lits, nkeys: len(t.keys)}
}

// lit interns a theory literal; t.mu must be held for writing.
func (t *termTable) lit(l lit) int32 {
	if id, ok := t.litIDs[l]; ok {
		return id
	}
	cl := clit{op: l.op, x: t.term(l.x), y: t.term(l.y)}
	cl.bad = !t.linearize(l.x, 1, &cl.lin, &cl.k) || !t.linearize(l.y, -1, &cl.lin, &cl.k)
	id := int32(len(t.lits))
	t.lits = append(t.lits, cl)
	t.litIDs[l] = id
	return id
}

// term interns a term and its subterms; t.mu must be held for writing.
func (t *termTable) term(x form.Term) int32 {
	if id, ok := t.termIDs[x]; ok {
		return id
	}
	ct := cterm{key: t.key(x.String()), label: -1, args: [2]int32{-1, -1}, addrVar: -1, derefKey: -1}
	switch x := x.(type) {
	case form.Num:
		ct.num, ct.isNum = x.V, true
	case form.Deref:
		ct.label, ct.args[0] = labelDeref, t.term(x.X)
	case form.Sel:
		ct.label, ct.args[0] = t.field(x.Field), t.term(x.X)
	case form.Idx:
		ct.label, ct.args = labelIdx, [2]int32{t.term(x.X), t.term(x.I)}
	case form.AddrOf:
		ct.label, ct.args[0] = labelAddr, t.term(x.X)
		if v, ok := x.X.(form.Var); ok {
			ct.addrVar = t.terms[ct.args[0]].key
			ct.derefKey = t.key("*(&" + v.String() + ")")
		}
	case form.Neg:
		ct.label, ct.args[0] = labelNeg, t.term(x.X)
	case form.Arith:
		ct.label, ct.args = labelArith+int32(x.Op), [2]int32{t.term(x.X), t.term(x.Y)}
	}
	id := int32(len(t.terms))
	t.terms = append(t.terms, ct)
	t.termIDs[x] = id
	return id
}

func (t *termTable) key(s string) int32 {
	id, ok := t.keys[s]
	if !ok {
		id = int32(len(t.keys))
		t.keys[s] = id
	}
	return id
}

func (t *termTable) field(name string) int32 {
	id, ok := t.fields[name]
	if !ok {
		id = labelField + int32(len(t.fields))
		t.fields[name] = id
	}
	return id
}

// linearize adds mul·x to the summands and constant. Non-arithmetic
// terms (and nonlinear applications) are opaque summands. It reports
// false on int64 overflow, leaving the summands appended so far.
func (t *termTable) linearize(x form.Term, mul int64, terms *[]linTerm, k *int64) bool {
	switch x := x.(type) {
	case form.Num:
		v, ok := mulOK(mul, x.V)
		if ok {
			*k, ok = addOK(*k, v)
		}
		return ok
	case form.Neg:
		m, ok := mulOK(mul, -1)
		return ok && t.linearize(x.X, m, terms, k)
	case form.Arith:
		switch x.Op {
		case form.OpAdd, form.OpSub:
			my := mul
			if x.Op == form.OpSub {
				var ok bool
				if my, ok = mulOK(mul, -1); !ok {
					return false
				}
			}
			return t.linearize(x.X, mul, terms, k) && t.linearize(x.Y, my, terms, k)
		case form.OpMul:
			if n, ok := x.X.(form.Num); ok {
				m, ok := mulOK(mul, n.V)
				return ok && t.linearize(x.Y, m, terms, k)
			}
			if n, ok := x.Y.(form.Num); ok {
				m, ok := mulOK(mul, n.V)
				return ok && t.linearize(x.X, m, terms, k)
			}
		}
	}
	*terms = append(*terms, linTerm{id: t.term(x), coef: mul})
	return true
}
