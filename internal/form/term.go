// Package form defines the quantifier-free logic used throughout the
// toolkit: integer/pointer terms with uninterpreted dereference, field
// selection and array element functions, and boolean formulas over
// (dis)equalities and linear inequalities.
//
// This is the paper's predicate language ("pure C boolean expressions
// containing no function calls", Section 1): quantifier-free, with a
// logical memory model. Locations — variables, field accesses from a
// location, dereferences of a location (Section 4.2) — are a syntactic
// subclass of terms.
package form

import (
	"sort"
	"strconv"
)

// Term is an integer- or pointer-valued term.
type Term interface {
	term()
	// String renders the term in C-like syntax; the result is canonical
	// (used as cache and equality keys).
	String() string
}

// Num is an integer constant. NULL is Num 0, matching C.
type Num struct{ V int64 }

// Var is a named program variable (scalar, pointer, struct or array).
type Var struct{ Name string }

// Deref is *X for a pointer-valued X.
type Deref struct{ X Term }

// Sel is field selection from a struct-valued term: (X).Field.
// C's p->f is represented as Sel{Deref{p}, f}.
type Sel struct {
	X     Term
	Field string
}

// Idx is array element selection X[I].
type Idx struct {
	X Term
	I Term
}

// AddrOf is &X for a location X.
type AddrOf struct{ X Term }

// ArithOp enumerates arithmetic operators.
type ArithOp int

// Arithmetic operators. Mul by a non-constant, Div and Mod are treated as
// uninterpreted by the prover (sound, incomplete).
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
)

// String renders the operator in C syntax.
func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	}
	return "?"
}

// Arith is a binary arithmetic operation.
type Arith struct {
	Op   ArithOp
	X, Y Term
}

// Neg is unary minus.
type Neg struct{ X Term }

func (Num) term()    {}
func (Var) term()    {}
func (Deref) term()  {}
func (Sel) term()    {}
func (Idx) term()    {}
func (AddrOf) term() {}
func (Arith) term()  {}
func (Neg) term()    {}

// String renders t in C syntax.
func (t Num) String() string { return strconv.FormatInt(t.V, 10) }

// String renders t in C syntax.
func (t Var) String() string { return t.Name }

// String renders t in C syntax.
func (t Deref) String() string { return "*" + parenTerm(t.X) }

// String renders t in C syntax.
func (t Sel) String() string {
	// Render Sel{Deref{p}, f} as p->f, like the source syntax.
	if d, ok := t.X.(Deref); ok {
		return parenTerm(d.X) + "->" + t.Field
	}
	return parenTerm(t.X) + "." + t.Field
}

// String renders t in C syntax.
func (t Idx) String() string { return parenTerm(t.X) + "[" + t.I.String() + "]" }

// String renders t in C syntax.
func (t AddrOf) String() string { return "&" + parenTerm(t.X) }

// String renders t in C syntax.
func (t Arith) String() string {
	return "(" + t.X.String() + " " + t.Op.String() + " " + t.Y.String() + ")"
}

// String renders t in C syntax.
func (t Neg) String() string { return "-" + parenTerm(t.X) }

func parenTerm(t Term) string {
	switch t.(type) {
	case Arith, Neg:
		return "(" + t.String() + ")"
	default:
		return t.String()
	}
}

// TermEq reports structural equality, using canonical strings.
func TermEq(a, b Term) bool { return a.String() == b.String() }

// sortBySizeDesc orders terms with larger (outer) terms first, breaking ties
// by string for determinism.
func sortBySizeDesc(ts []Term) {
	sort.SliceStable(ts, func(i, j int) bool {
		si, sj := termSize(ts[i]), termSize(ts[j])
		if si != sj {
			return si > sj
		}
		return ts[i].String() < ts[j].String()
	})
}

// TermSize returns the node count of t (used for inner/outer ordering).
func TermSize(t Term) int { return termSize(t) }

func termSize(t Term) int {
	switch t := t.(type) {
	case Num, Var:
		return 1
	case Deref:
		return 1 + termSize(t.X)
	case Sel:
		return 1 + termSize(t.X)
	case Idx:
		return 1 + termSize(t.X) + termSize(t.I)
	case AddrOf:
		return 1 + termSize(t.X)
	case Arith:
		return 1 + termSize(t.X) + termSize(t.Y)
	case Neg:
		return 1 + termSize(t.X)
	}
	return 1
}

// TermVars returns the sorted set of variable names mentioned in t.
func TermVars(t Term) []string {
	set := map[string]bool{}
	collectTermVars(t, set)
	return sortedKeys(set)
}

func collectTermVars(t Term, set map[string]bool) {
	switch t := t.(type) {
	case Var:
		set[t.Name] = true
	case Deref:
		collectTermVars(t.X, set)
	case Sel:
		collectTermVars(t.X, set)
	case Idx:
		collectTermVars(t.X, set)
		collectTermVars(t.I, set)
	case AddrOf:
		collectTermVars(t.X, set)
	case Arith:
		collectTermVars(t.X, set)
		collectTermVars(t.Y, set)
	case Neg:
		collectTermVars(t.X, set)
	}
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SubstTerm replaces every occurrence of the subterm old (by structural
// equality) in t with repl.
func SubstTerm(t, old, repl Term) Term {
	if TermEq(t, old) {
		return repl
	}
	switch t := t.(type) {
	case Deref:
		return Deref{X: SubstTerm(t.X, old, repl)}
	case Sel:
		return Sel{X: SubstTerm(t.X, old, repl), Field: t.Field}
	case Idx:
		return Idx{X: SubstTerm(t.X, old, repl), I: SubstTerm(t.I, old, repl)}
	case AddrOf:
		return AddrOf{X: SubstTerm(t.X, old, repl)}
	case Arith:
		return Arith{Op: t.Op, X: SubstTerm(t.X, old, repl), Y: SubstTerm(t.Y, old, repl)}
	case Neg:
		return Neg{X: SubstTerm(t.X, old, repl)}
	}
	return t
}

// Addr returns the term denoting the address of location loc:
// Addr(v) = &v, Addr(*p) = p, Addr(l.f) = &(l.f), Addr(a[i]) = &(a[i]).
func Addr(loc Term) Term {
	if d, ok := loc.(Deref); ok {
		return d.X
	}
	return AddrOf{X: loc}
}
