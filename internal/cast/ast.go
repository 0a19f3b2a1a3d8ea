package cast

import (
	"fmt"
	"strings"

	"predabs/internal/ctok"
)

// UnaryOp enumerates MiniC unary operators.
type UnaryOp int

// Unary operators.
const (
	Neg    UnaryOp = iota // -x
	Not                   // !x
	Deref_                // *x
	AddrOf                // &x
)

// String renders the operator in C syntax.
func (op UnaryOp) String() string {
	switch op {
	case Neg:
		return "-"
	case Not:
		return "!"
	case Deref_:
		return "*"
	case AddrOf:
		return "&"
	}
	return "?"
}

// BinOp enumerates MiniC binary operators.
type BinOp int

// Binary operators.
const (
	Add BinOp = iota
	Sub
	Mul
	Div
	Mod
	Lt
	Le
	Gt
	Ge
	Eq
	Ne
	LAnd
	LOr
)

// String renders the operator in C syntax.
func (op BinOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	case Mod:
		return "%"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Eq:
		return "=="
	case Ne:
		return "!="
	case LAnd:
		return "&&"
	case LOr:
		return "||"
	}
	return "?"
}

// IsRelational reports whether op compares values yielding a boolean.
func (op BinOp) IsRelational() bool {
	switch op {
	case Lt, Le, Gt, Ge, Eq, Ne:
		return true
	}
	return false
}

// IsLogical reports whether op is && or ||.
func (op BinOp) IsLogical() bool { return op == LAnd || op == LOr }

// Expr is a MiniC expression node.
type Expr interface {
	expr()
	Pos() ctok.Pos
	String() string
}

type exprBase struct{ P ctok.Pos }

func (e exprBase) Pos() ctok.Pos { return e.P }
func (exprBase) expr()           {}

// IntLit is an integer literal.
type IntLit struct {
	exprBase
	Value int64
}

// NullLit is the NULL pointer literal.
type NullLit struct{ exprBase }

// VarRef is a reference to a named variable.
type VarRef struct {
	exprBase
	Name string
}

// Unary is a unary operation: -x, !x, *x, &x.
type Unary struct {
	exprBase
	Op UnaryOp
	X  Expr
}

// Binary is a binary operation.
type Binary struct {
	exprBase
	Op   BinOp
	X, Y Expr
}

// Field is a field access: X.Name (Arrow=false) or X->Name (Arrow=true).
type Field struct {
	exprBase
	X     Expr
	Name  string
	Arrow bool
}

// Index is an array subscript X[I].
type Index struct {
	exprBase
	X Expr
	I Expr
}

// Call is a function call by name.
type Call struct {
	exprBase
	Name string
	Args []Expr
}

// String renders e in C syntax.
func (e *IntLit) String() string { return fmt.Sprintf("%d", e.Value) }

// String renders e in C syntax.
func (e *NullLit) String() string { return "NULL" }

// String renders e in C syntax.
func (e *VarRef) String() string { return e.Name }

// String renders e in C syntax.
func (e *Unary) String() string {
	return fmt.Sprintf("%s%s", e.Op, parenExpr(e.X))
}

// String renders e in C syntax.
func (e *Binary) String() string {
	return fmt.Sprintf("%s %s %s", parenExpr(e.X), e.Op, parenExpr(e.Y))
}

// String renders e in C syntax.
func (e *Field) String() string {
	sep := "."
	if e.Arrow {
		sep = "->"
	}
	return parenExpr(e.X) + sep + e.Name
}

// String renders e in C syntax.
func (e *Index) String() string { return fmt.Sprintf("%s[%s]", parenExpr(e.X), e.I) }

// String renders e in C syntax.
func (e *Call) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Name, strings.Join(args, ", "))
}

// parenExpr renders a subexpression, parenthesizing compound forms so that
// printed trees re-parse with the same structure.
func parenExpr(e Expr) string {
	switch e.(type) {
	case *IntLit, *NullLit, *VarRef, *Call, *Field, *Index:
		return e.String()
	default:
		return "(" + e.String() + ")"
	}
}

// Stmt is a MiniC statement node.
type Stmt interface {
	stmt()
	Pos() ctok.Pos
}

type stmtBase struct{ P ctok.Pos }

func (s stmtBase) Pos() ctok.Pos { return s.P }
func (stmtBase) stmt()           {}

// Block is a brace-delimited statement sequence.
type Block struct {
	stmtBase
	Stmts []Stmt
}

// DeclStmt declares a local variable, optionally with an initializer.
type DeclStmt struct {
	stmtBase
	Name string
	Type Type
	Init Expr // may be nil
}

// AssignStmt is Lhs = Rhs.
type AssignStmt struct {
	stmtBase
	Lhs Expr
	Rhs Expr
}

// ExprStmt evaluates an expression for effect (in MiniC, a call).
type ExprStmt struct {
	stmtBase
	X Expr
}

// IfStmt is if (Cond) Then [else Else].
type IfStmt struct {
	stmtBase
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// WhileStmt is while (Cond) Body.
type WhileStmt struct {
	stmtBase
	Cond Expr
	Body Stmt
}

// GotoStmt jumps to a label.
type GotoStmt struct {
	stmtBase
	Label string
}

// LabeledStmt is Label: Stmt.
type LabeledStmt struct {
	stmtBase
	Label string
	Stmt  Stmt
}

// ReturnStmt returns from the enclosing function.
type ReturnStmt struct {
	stmtBase
	X Expr // may be nil
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ stmtBase }

// ContinueStmt restarts the innermost loop.
type ContinueStmt struct{ stmtBase }

// AssertStmt is assert(X): an error if X can be false.
type AssertStmt struct {
	stmtBase
	X Expr
}

// AssumeStmt is assume(X): executions where X is false are ignored.
type AssumeStmt struct {
	stmtBase
	X Expr
}

// EmptyStmt is a lone semicolon.
type EmptyStmt struct{ stmtBase }

// Param is a function parameter.
type Param struct {
	Name string
	Type Type
}

// FuncDef is a function definition.
type FuncDef struct {
	Name   string
	Ret    Type
	Params []Param
	Body   *Block
	P      ctok.Pos
}

// VarDecl is a global variable declaration.
type VarDecl struct {
	Name string
	Type Type
	P    ctok.Pos
}

// Program is a parsed MiniC translation unit.
type Program struct {
	Structs []*StructDef
	Globals []*VarDecl
	Funcs   []*FuncDef
}

// Struct returns the definition of the named struct, or nil.
func (p *Program) Struct(name string) *StructDef {
	for _, s := range p.Structs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Func returns the definition of the named function, or nil.
func (p *Program) Func(name string) *FuncDef {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Global returns the declaration of the named global, or nil.
func (p *Program) Global(name string) *VarDecl {
	for _, g := range p.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// NewInt is a convenience constructor for integer literals.
func NewInt(v int64) *IntLit { return &IntLit{Value: v} }

// NewVar is a convenience constructor for variable references.
func NewVar(name string) *VarRef { return &VarRef{Name: name} }
