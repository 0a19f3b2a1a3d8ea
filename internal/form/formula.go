package form

import (
	"strings"
)

// RelOp enumerates comparison operators in formulas.
type RelOp int

// Comparison operators.
const (
	Eq RelOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

// String renders the operator in C syntax.
func (op RelOp) String() string {
	switch op {
	case Eq:
		return "=="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return "?"
}

// Negate returns the complementary operator.
func (op RelOp) Negate() RelOp {
	switch op {
	case Eq:
		return Ne
	case Ne:
		return Eq
	case Lt:
		return Ge
	case Le:
		return Gt
	case Gt:
		return Le
	case Ge:
		return Lt
	}
	return op
}

// Formula is a quantifier-free boolean formula.
type Formula interface {
	formula()
	// String renders the formula in C-like syntax; canonical.
	String() string
}

// TrueF is the formula true.
type TrueF struct{}

// FalseF is the formula false.
type FalseF struct{}

// Cmp is the atom X Op Y.
type Cmp struct {
	Op   RelOp
	X, Y Term
}

// Not is logical negation.
type Not struct{ F Formula }

// And is n-ary conjunction (empty = true).
type And struct{ Fs []Formula }

// Or is n-ary disjunction (empty = false).
type Or struct{ Fs []Formula }

func (TrueF) formula()  {}
func (FalseF) formula() {}
func (Cmp) formula()    {}
func (Not) formula()    {}
func (And) formula()    {}
func (Or) formula()     {}

// String renders f in C syntax.
func (TrueF) String() string { return "true" }

// String renders f in C syntax.
func (FalseF) String() string { return "false" }

// String renders f in C syntax.
func (f Cmp) String() string {
	return f.X.String() + " " + f.Op.String() + " " + f.Y.String()
}

// String renders f in C syntax.
func (f Not) String() string { return "!(" + f.F.String() + ")" }

// String renders f in C syntax.
func (f And) String() string {
	if len(f.Fs) == 0 {
		return "true"
	}
	parts := make([]string, len(f.Fs))
	for i, g := range f.Fs {
		parts[i] = "(" + g.String() + ")"
	}
	return strings.Join(parts, " && ")
}

// String renders f in C syntax.
func (f Or) String() string {
	if len(f.Fs) == 0 {
		return "false"
	}
	parts := make([]string, len(f.Fs))
	for i, g := range f.Fs {
		parts[i] = "(" + g.String() + ")"
	}
	return strings.Join(parts, " || ")
}

// MkAnd builds a flattened, simplified conjunction.
func MkAnd(fs ...Formula) Formula {
	var out []Formula
	for _, f := range fs {
		switch f := f.(type) {
		case TrueF:
		case FalseF:
			return FalseF{}
		case And:
			for _, g := range f.Fs {
				switch g.(type) {
				case TrueF:
				case FalseF:
					return FalseF{}
				default:
					out = append(out, g)
				}
			}
		default:
			out = append(out, f)
		}
	}
	out = dedupFormulas(out)
	switch len(out) {
	case 0:
		return TrueF{}
	case 1:
		return out[0]
	}
	return And{Fs: out}
}

// MkOr builds a flattened, simplified disjunction.
func MkOr(fs ...Formula) Formula {
	var out []Formula
	for _, f := range fs {
		switch f := f.(type) {
		case FalseF:
		case TrueF:
			return TrueF{}
		case Or:
			for _, g := range f.Fs {
				switch g.(type) {
				case FalseF:
				case TrueF:
					return TrueF{}
				default:
					out = append(out, g)
				}
			}
		default:
			out = append(out, f)
		}
	}
	out = dedupFormulas(out)
	switch len(out) {
	case 0:
		return FalseF{}
	case 1:
		return out[0]
	}
	return Or{Fs: out}
}

func dedupFormulas(fs []Formula) []Formula {
	seen := map[string]bool{}
	out := fs[:0]
	for _, f := range fs {
		k := f.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, f)
		}
	}
	return out
}

// MkNot builds a simplified negation (pushes through constants and
// comparisons, cancels double negation).
func MkNot(f Formula) Formula {
	switch f := f.(type) {
	case TrueF:
		return FalseF{}
	case FalseF:
		return TrueF{}
	case Not:
		return f.F
	case Cmp:
		return Cmp{Op: f.Op.Negate(), X: f.X, Y: f.Y}
	}
	return Not{F: f}
}

// MkCmp builds a comparison, constant-folding ground atoms.
func MkCmp(op RelOp, x, y Term) Formula {
	nx, xok := x.(Num)
	ny, yok := y.(Num)
	if xok && yok {
		var b bool
		switch op {
		case Eq:
			b = nx.V == ny.V
		case Ne:
			b = nx.V != ny.V
		case Lt:
			b = nx.V < ny.V
		case Le:
			b = nx.V <= ny.V
		case Gt:
			b = nx.V > ny.V
		case Ge:
			b = nx.V >= ny.V
		}
		if b {
			return TrueF{}
		}
		return FalseF{}
	}
	// Address constants: &a and &b are distinct for distinct variables,
	// and never NULL. (Within one formula, equal names mean equal cells.)
	if ax, okx := x.(AddrOf); okx {
		if vx, ok := ax.X.(Var); ok {
			if ay, oky := y.(AddrOf); oky {
				if vy, ok := ay.X.(Var); ok && (op == Eq || op == Ne) {
					same := vx.Name == vy.Name
					if (op == Eq) == same {
						return TrueF{}
					}
					return FalseF{}
				}
			}
			if n, ok := y.(Num); ok && n.V == 0 && (op == Eq || op == Ne) {
				if op == Eq {
					return FalseF{}
				}
				return TrueF{}
			}
		}
	}
	if n, ok := x.(Num); ok && n.V == 0 && (op == Eq || op == Ne) {
		if ay, oky := y.(AddrOf); oky {
			if _, ok := ay.X.(Var); ok {
				if op == Eq {
					return FalseF{}
				}
				return TrueF{}
			}
		}
	}
	if op == Eq && TermEq(x, y) {
		return TrueF{}
	}
	if op == Ne && TermEq(x, y) {
		return FalseF{}
	}
	if (op == Le || op == Ge) && TermEq(x, y) {
		return TrueF{}
	}
	if (op == Lt || op == Gt) && TermEq(x, y) {
		return FalseF{}
	}
	return Cmp{Op: op, X: x, Y: y}
}

// NNF converts f into negation normal form (negations only on atoms,
// realized by flipped comparison operators).
func NNF(f Formula) Formula {
	switch f := f.(type) {
	case TrueF, FalseF, Cmp:
		return f
	case And:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = NNF(g)
		}
		return MkAnd(out...)
	case Or:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = NNF(g)
		}
		return MkOr(out...)
	case Not:
		switch g := f.F.(type) {
		case TrueF:
			return FalseF{}
		case FalseF:
			return TrueF{}
		case Cmp:
			return Cmp{Op: g.Op.Negate(), X: g.X, Y: g.Y}
		case Not:
			return NNF(g.F)
		case And:
			out := make([]Formula, len(g.Fs))
			for i, h := range g.Fs {
				out[i] = NNF(Not{F: h})
			}
			return MkOr(out...)
		case Or:
			out := make([]Formula, len(g.Fs))
			for i, h := range g.Fs {
				out[i] = NNF(Not{F: h})
			}
			return MkAnd(out...)
		}
	}
	return f
}

// Subst replaces every occurrence of subterm old with repl throughout f.
func Subst(f Formula, old, repl Term) Formula {
	switch f := f.(type) {
	case TrueF, FalseF:
		return f
	case Cmp:
		return MkCmp(f.Op, SubstTerm(f.X, old, repl), SubstTerm(f.Y, old, repl))
	case Not:
		return MkNot(Subst(f.F, old, repl))
	case And:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = Subst(g, old, repl)
		}
		return MkAnd(out...)
	case Or:
		out := make([]Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = Subst(g, old, repl)
		}
		return MkOr(out...)
	}
	return f
}

func collectFormulaTerms(f Formula, out *[]Term) {
	switch f := f.(type) {
	case Cmp:
		*out = append(*out, f.X, f.Y)
	case Not:
		collectFormulaTerms(f.F, out)
	case And:
		for _, g := range f.Fs {
			collectFormulaTerms(g, out)
		}
	case Or:
		for _, g := range f.Fs {
			collectFormulaTerms(g, out)
		}
	}
}

// FormulaVars returns the sorted variable names mentioned in f.
func FormulaVars(f Formula) []string {
	set := map[string]bool{}
	var terms []Term
	collectFormulaTerms(f, &terms)
	for _, t := range terms {
		collectTermVars(t, set)
	}
	return sortedKeys(set)
}

// Atoms returns the distinct comparison atoms of f in order of appearance.
func Atoms(f Formula) []Cmp {
	var out []Cmp
	seen := map[string]bool{}
	var walk func(Formula)
	walk = func(f Formula) {
		switch f := f.(type) {
		case Cmp:
			if !seen[f.String()] {
				seen[f.String()] = true
				out = append(out, f)
			}
		case Not:
			walk(f.F)
		case And:
			for _, g := range f.Fs {
				walk(g)
			}
		case Or:
			for _, g := range f.Fs {
				walk(g)
			}
		}
	}
	walk(f)
	return out
}
