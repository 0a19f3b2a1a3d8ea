// Package bp defines boolean programs — the target language of the C2bp
// abstraction and the input language of the Bebop model checker. A boolean
// program is "essentially a C program in which the only type available is
// boolean" (paper Section 1), with global variables, procedures with
// call-by-value parameters and multiple return values, parallel
// assignment, nondeterministic choice (*), assume/assert filters, the
// choose three-valued helper, and per-procedure enforce invariants.
package bp

import (
	"fmt"
	"strings"
)

// Expr is a boolean expression.
type Expr interface {
	expr()
	String() string
}

// Const is true or false.
type Const struct{ Val bool }

// Ref names a boolean variable. Names may be arbitrary strings (the
// printer quotes non-identifier names in {braces}, as in the paper).
type Ref struct{ Name string }

// Unknown is the nondeterministic control expression "*".
type Unknown struct{}

// Not is logical negation.
type Not struct{ X Expr }

// Bin is a binary boolean operation.
type Bin struct {
	Op   BinOp
	X, Y Expr
}

// BinOp enumerates boolean connectives.
type BinOp int

// Boolean connectives.
const (
	And BinOp = iota
	Or
	Implies
	Iff
)

// String renders the operator in boolean-program syntax.
func (op BinOp) String() string {
	switch op {
	case And:
		return "&"
	case Or:
		return "|"
	case Implies:
		return "=>"
	case Iff:
		return "<=>"
	}
	return "?"
}

// Choose is the three-valued helper from the paper:
// choose(pos, neg) = true if pos, false if neg, nondeterministic otherwise.
// (pos and neg are never simultaneously true in well-formed programs.)
type Choose struct{ Pos, Neg Expr }

func (Const) expr()   {}
func (Ref) expr()     {}
func (Unknown) expr() {}
func (Not) expr()     {}
func (Bin) expr()     {}
func (Choose) expr()  {}

// String renders e in boolean-program syntax.
func (e Const) String() string {
	if e.Val {
		return "true"
	}
	return "false"
}

// isPlainIdent reports whether the name can be printed without braces.
func isPlainIdent(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '_', 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z':
		case '0' <= c && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	switch s {
	case "true", "false", "skip", "goto", "assume", "assert", "return",
		"decl", "begin", "end", "enforce", "if", "then", "else", "fi",
		"while", "do", "od", "choose", "bool", "void", "schoose":
		return false
	}
	return true
}

// String renders e in boolean-program syntax.
func (e Ref) String() string {
	if isPlainIdent(e.Name) {
		return e.Name
	}
	return "{" + e.Name + "}"
}

// String renders e in boolean-program syntax.
func (Unknown) String() string { return "*" }

// String renders e in boolean-program syntax.
func (e Not) String() string { return "!" + parenE(e.X) }

// String renders e in boolean-program syntax.
func (e Bin) String() string {
	return parenE(e.X) + " " + e.Op.String() + " " + parenE(e.Y)
}

// String renders e in boolean-program syntax.
func (e Choose) String() string {
	return "choose(" + e.Pos.String() + ", " + e.Neg.String() + ")"
}

func parenE(e Expr) string {
	switch e.(type) {
	case Const, Ref, Unknown, Not, Choose:
		return e.String()
	default:
		return "(" + e.String() + ")"
	}
}

// ExprEq compares expressions structurally.
func ExprEq(a, b Expr) bool { return a.String() == b.String() }

// StmtKind enumerates the flat statement forms.
type StmtKind int

// Statement kinds.
const (
	Skip StmtKind = iota
	Assign
	Assume
	Assert
	Goto
	Call
	Return
)

// Stmt is one flat statement. Control flow is expressed with labels and
// (possibly nondeterministic multi-target) gotos; the parser desugars
// structured if/while into this form.
type Stmt struct {
	Labels []string
	Kind   StmtKind

	// Assign: parallel assignment Lhs := Rhs.
	Lhs []string
	Rhs []Expr

	// Assume/Assert condition.
	Cond Expr

	// Goto targets (one or more; several = nondeterministic choice).
	Targets []string

	// Call: CallLhs := Callee(Args). CallLhs may be empty.
	Callee  string
	Args    []Expr
	CallLhs []string

	// Return values (procedures may return several booleans).
	RetVals []Expr

	// Origin optionally records the originating C statement (set by the
	// abstraction pass; used for counterexample mapping).
	Origin any
	// Comment carries the C source text of the originating statement.
	Comment string
}

// Proc is a boolean procedure.
type Proc struct {
	Name    string
	Params  []string
	NRet    int // number of returned booleans
	Locals  []string
	Enforce Expr // data invariant, or nil
	Stmts   []*Stmt

	// labelIdx maps labels to statement indices (built by Resolve).
	labelIdx map[string]int
}

// Program is a boolean program.
type Program struct {
	Globals []string
	Procs   []*Proc
}

// Proc returns the named procedure, or nil.
func (p *Program) Proc(name string) *Proc {
	for _, pr := range p.Procs {
		if pr.Name == name {
			return pr
		}
	}
	return nil
}

// LabelIndex returns the statement index of a label.
func (pr *Proc) LabelIndex(label string) (int, bool) {
	i, ok := pr.labelIdx[label]
	return i, ok
}

// Resolve validates the program: labels resolve, variables are declared,
// call arities match. It must be called before interpretation or model
// checking.
func (p *Program) Resolve() error {
	globals := map[string]bool{}
	for _, g := range p.Globals {
		if globals[g] {
			return fmt.Errorf("bp: duplicate global %q", g)
		}
		globals[g] = true
	}
	seen := map[string]bool{}
	for _, pr := range p.Procs {
		if seen[pr.Name] {
			return fmt.Errorf("bp: duplicate procedure %q", pr.Name)
		}
		seen[pr.Name] = true
	}
	for _, pr := range p.Procs {
		if err := p.resolveProc(pr, globals); err != nil {
			return err
		}
	}
	return nil
}

func (p *Program) resolveProc(pr *Proc, globals map[string]bool) error {
	scope := map[string]bool{}
	for _, v := range append(append([]string{}, pr.Params...), pr.Locals...) {
		if scope[v] {
			return fmt.Errorf("bp: %s: duplicate variable %q", pr.Name, v)
		}
		scope[v] = true
	}
	inScope := func(v string) bool { return scope[v] || globals[v] }

	pr.labelIdx = map[string]int{}
	for i, s := range pr.Stmts {
		for _, l := range s.Labels {
			if _, dup := pr.labelIdx[l]; dup {
				return fmt.Errorf("bp: %s: duplicate label %q", pr.Name, l)
			}
			pr.labelIdx[l] = i
		}
	}

	var checkExpr func(e Expr) error
	checkExpr = func(e Expr) error {
		switch e := e.(type) {
		case Ref:
			if !inScope(e.Name) {
				return fmt.Errorf("bp: %s: undeclared variable %q", pr.Name, e.Name)
			}
		case Not:
			return checkExpr(e.X)
		case Bin:
			if err := checkExpr(e.X); err != nil {
				return err
			}
			return checkExpr(e.Y)
		case Choose:
			if err := checkExpr(e.Pos); err != nil {
				return err
			}
			return checkExpr(e.Neg)
		}
		return nil
	}

	if pr.Enforce != nil {
		if err := checkExpr(pr.Enforce); err != nil {
			return err
		}
	}
	for i, s := range pr.Stmts {
		switch s.Kind {
		case Assign:
			if len(s.Lhs) != len(s.Rhs) {
				return fmt.Errorf("bp: %s stmt %d: %d targets, %d values", pr.Name, i, len(s.Lhs), len(s.Rhs))
			}
			for _, v := range s.Lhs {
				if !inScope(v) {
					return fmt.Errorf("bp: %s stmt %d: undeclared target %q", pr.Name, i, v)
				}
			}
			for _, e := range s.Rhs {
				if err := checkExpr(e); err != nil {
					return err
				}
			}
		case Assume, Assert:
			if err := checkExpr(s.Cond); err != nil {
				return err
			}
		case Goto:
			if len(s.Targets) == 0 {
				return fmt.Errorf("bp: %s stmt %d: goto with no targets", pr.Name, i)
			}
			for _, tgt := range s.Targets {
				if _, ok := pr.labelIdx[tgt]; !ok {
					return fmt.Errorf("bp: %s stmt %d: unknown label %q", pr.Name, i, tgt)
				}
			}
		case Call:
			callee := p.Proc(s.Callee)
			if callee == nil {
				return fmt.Errorf("bp: %s stmt %d: call to unknown procedure %q", pr.Name, i, s.Callee)
			}
			if len(s.Args) != len(callee.Params) {
				return fmt.Errorf("bp: %s stmt %d: %s takes %d args, got %d",
					pr.Name, i, s.Callee, len(callee.Params), len(s.Args))
			}
			if len(s.CallLhs) != 0 && len(s.CallLhs) != callee.NRet {
				return fmt.Errorf("bp: %s stmt %d: %s returns %d values, %d targets",
					pr.Name, i, s.Callee, callee.NRet, len(s.CallLhs))
			}
			for _, v := range s.CallLhs {
				if !inScope(v) {
					return fmt.Errorf("bp: %s stmt %d: undeclared target %q", pr.Name, i, v)
				}
			}
			for _, e := range s.Args {
				if err := checkExpr(e); err != nil {
					return err
				}
			}
		case Return:
			if len(s.RetVals) != pr.NRet {
				return fmt.Errorf("bp: %s stmt %d: return with %d values, procedure returns %d",
					pr.Name, i, len(s.RetVals), pr.NRet)
			}
			for _, e := range s.RetVals {
				if err := checkExpr(e); err != nil {
					return err
				}
			}
		}
	}
	if len(pr.Stmts) == 0 || pr.Stmts[len(pr.Stmts)-1].Kind != Return {
		return fmt.Errorf("bp: %s: must end with a return statement", pr.Name)
	}
	return nil
}

// MkAnd, MkOr, MkNot build simplified expressions.

// MkNot negates with simplification.
func MkNot(e Expr) Expr {
	switch e := e.(type) {
	case Const:
		return Const{!e.Val}
	case Not:
		return e.X
	}
	return Not{X: e}
}

// MkAnd conjoins with simplification.
func MkAnd(a, b Expr) Expr {
	if c, ok := a.(Const); ok {
		if c.Val {
			return b
		}
		return Const{false}
	}
	if c, ok := b.(Const); ok {
		if c.Val {
			return a
		}
		return Const{false}
	}
	return Bin{Op: And, X: a, Y: b}
}

// MkOr disjoins with simplification.
func MkOr(a, b Expr) Expr {
	if c, ok := a.(Const); ok {
		if c.Val {
			return Const{true}
		}
		return b
	}
	if c, ok := b.(Const); ok {
		if c.Val {
			return Const{true}
		}
		return a
	}
	return Bin{Op: Or, X: a, Y: b}
}

// OrAll folds MkOr (false for empty).
func OrAll(es []Expr) Expr {
	out := Expr(Const{false})
	for _, e := range es {
		out = MkOr(out, e)
	}
	return out
}

// StmtString renders a statement without labels (diagnostics).
func StmtString(s *Stmt) string {
	switch s.Kind {
	case Skip:
		return "skip;"
	case Assign:
		return strings.Join(refs(s.Lhs), ", ") + " := " + exprs(s.Rhs) + ";"
	case Assume:
		return "assume(" + s.Cond.String() + ");"
	case Assert:
		return "assert(" + s.Cond.String() + ");"
	case Goto:
		return "goto " + strings.Join(refs(s.Targets), ", ") + ";"
	case Call:
		call := s.Callee + "(" + exprs(s.Args) + ")"
		if len(s.CallLhs) > 0 {
			return strings.Join(refs(s.CallLhs), ", ") + " := " + call + ";"
		}
		return call + ";"
	case Return:
		if len(s.RetVals) == 0 {
			return "return;"
		}
		return "return " + exprs(s.RetVals) + ";"
	}
	return "?;"
}

func refs(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = Ref{Name: n}.String()
	}
	return out
}

func exprs(es []Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}
