// Package cnorm lowers a type-checked MiniC program into the C2bp paper's
// "simple intermediate form" (Section 4):
//
//  1. all intraprocedural control flow is if-then-else statements, while
//     loops with simple conditions, gotos and labels (break/continue are
//     desugared to gotos; loop conditions that need preludes are desugared
//     to label+if+goto form);
//  2. all expressions are free of side effects and contain no multiple
//     dereferences of a pointer (**p, p->f->g are flattened via temps);
//  3. a function call occurs only at the top-most level of an expression
//     (z = x + f(y) becomes t = f(y); z = x + t);
//  4. each function has exactly one return statement, of the form
//     "return r" for a distinguished return variable (or a bare return);
//  5. conditions are boolean-shaped (scalars are compared against 0/NULL)
//     and boolean-valued right-hand sides become if/else over 0/1;
//  6. pointer arithmetic p+i is collapsed to p, per the paper's logical
//     memory model.
package cnorm

import (
	"fmt"

	"predabs/internal/cast"
	"predabs/internal/ctype"
)

// RetVarName is the distinguished return variable introduced for non-void
// functions ("we assume there is only one return statement and it has the
// form return r").
const RetVarName = "__ret"

// ExitLabel is the label of the single return statement.
const ExitLabel = "__exit"

// Result carries the normalized program and its refreshed type information.
type Result struct {
	Prog *cast.Program
	Info *ctype.Info
	// RetVar maps each non-void function to its return variable name.
	RetVar map[string]string
}

// Normalize lowers prog (which must have type-checked as info) into simple
// intermediate form and re-type-checks the result.
func Normalize(info *ctype.Info) (*Result, error) {
	n := &normalizer{info: info}
	out := &cast.Program{Structs: info.Prog.Structs, Globals: info.Prog.Globals}
	retVars := map[string]string{}
	for _, f := range info.Prog.Funcs {
		nf, retVar := n.normalizeFunc(f)
		out.Funcs = append(out.Funcs, nf)
		if retVar != "" {
			retVars[f.Name] = retVar
		}
	}
	newInfo, err := ctype.Check(out)
	if err != nil {
		return nil, fmt.Errorf("cnorm: normalized program fails to re-check: %w", err)
	}
	return &Result{Prog: out, Info: newInfo, RetVar: retVars}, nil
}

type normalizer struct {
	info *ctype.Info

	fn       *cast.FuncDef
	decls    []*cast.DeclStmt
	tempN    int
	labelN   int
	breakLbl []string
	contLbl  []string
	usedLbls map[string]bool
	localTy  map[string]cast.Type
	// retVarOverride names the source-level return variable when the
	// function already has the paper's "single trailing return r" shape.
	retVarOverride string
}

// singleVarReturn reports whether f's only return statement is a trailing
// top-level "return v;" for a plain variable v.
func singleVarReturn(f *cast.FuncDef) (string, bool) {
	if _, isVoid := f.Ret.(cast.VoidType); isVoid {
		return "", false
	}
	count := 0
	var countReturns func(s cast.Stmt)
	countReturns = func(s cast.Stmt) {
		switch s := s.(type) {
		case *cast.Block:
			for _, sub := range s.Stmts {
				countReturns(sub)
			}
		case *cast.ReturnStmt:
			count++
		case *cast.IfStmt:
			countReturns(s.Then)
			if s.Else != nil {
				countReturns(s.Else)
			}
		case *cast.WhileStmt:
			countReturns(s.Body)
		case *cast.LabeledStmt:
			countReturns(s.Stmt)
		}
	}
	countReturns(f.Body)
	if count != 1 || len(f.Body.Stmts) == 0 {
		return "", false
	}
	last, ok := f.Body.Stmts[len(f.Body.Stmts)-1].(*cast.ReturnStmt)
	if !ok || last.X == nil {
		return "", false
	}
	v, ok := last.X.(*cast.VarRef)
	if !ok {
		return "", false
	}
	return v.Name, true
}

func (n *normalizer) freshTemp(t cast.Type) string {
	name := fmt.Sprintf("__t%d", n.tempN)
	n.tempN++
	n.decls = append(n.decls, &cast.DeclStmt{Name: name, Type: t})
	n.localTy[name] = t
	return name
}

func (n *normalizer) freshLabel(hint string) string {
	name := fmt.Sprintf("__%s%d", hint, n.labelN)
	n.labelN++
	return name
}

func (n *normalizer) typeOf(e cast.Expr) cast.Type {
	// Prefer the checker's recorded type; fall back to recomputation for
	// freshly built nodes.
	if t, ok := n.info.Types[e]; ok {
		return t
	}
	switch e := e.(type) {
	case *cast.VarRef:
		if t, ok := n.localTy[e.Name]; ok {
			return t
		}
		if t, ok := n.info.VarType(n.fn.Name, e.Name); ok {
			return t
		}
	case *cast.IntLit:
		return cast.IntType{}
	case *cast.Unary:
		if e.Op == cast.Deref_ {
			if elem, ok := cast.Deref(n.typeOf(e.X)); ok {
				return elem
			}
		}
		if e.Op == cast.AddrOf {
			return cast.PointerType{Elem: n.typeOf(e.X)}
		}
		return cast.IntType{}
	case *cast.Field:
		base := n.typeOf(e.X)
		if e.Arrow {
			if elem, ok := cast.Deref(base); ok {
				base = elem
			}
		}
		if st, ok := base.(cast.StructType); ok {
			if def := n.info.Prog.Struct(st.Name); def != nil {
				if fd := def.Field(e.Name); fd != nil {
					return fd.Type
				}
			}
		}
		return cast.IntType{}
	case *cast.Index:
		if elem, ok := cast.Deref(n.typeOf(e.X)); ok {
			return elem
		}
		return cast.IntType{}
	case *cast.Call:
		if f := n.info.Prog.Func(e.Name); f != nil {
			return f.Ret
		}
	}
	return cast.IntType{}
}

func (n *normalizer) normalizeFunc(f *cast.FuncDef) (*cast.FuncDef, string) {
	n.fn = f
	n.decls = nil
	n.tempN = 0
	n.labelN = 0
	n.usedLbls = map[string]bool{}
	n.localTy = map[string]cast.Type{}
	for _, p := range f.Params {
		n.localTy[p.Name] = p.Type
	}

	_, isVoid := f.Ret.(cast.VoidType)
	if !isVoid {
		n.localTy[RetVarName] = f.Ret
	}

	// The paper assumes each function has one return statement of the form
	// "return r". When the source already ends with a single top-level
	// "return var;" (Figure 2's bar returns l1), keep that variable as the
	// return variable r — the signature computation (Section 4.5.2)
	// classifies predicates mentioning r, so rewriting to a fresh __ret
	// would lose them. Otherwise introduce __ret and a single exit label.
	if r, ok := singleVarReturn(f); ok {
		n.retVarOverride = r
	} else {
		n.retVarOverride = ""
	}

	body := n.stmts(f.Body)

	// Single exit point (unless the source already has the right shape).
	if n.retVarOverride == "" {
		var exitStmt cast.Stmt
		if isVoid {
			exitStmt = &cast.ReturnStmt{}
		} else {
			exitStmt = &cast.ReturnStmt{X: cast.NewVar(RetVarName)}
		}
		body = append(body, &cast.LabeledStmt{Label: ExitLabel, Stmt: exitStmt})
	}

	// Hoisted declarations (original locals first, then temps) at entry.
	var pre []cast.Stmt
	if !isVoid && n.retVarOverride == "" {
		pre = append(pre, &cast.DeclStmt{Name: RetVarName, Type: f.Ret})
	}
	seen := map[string]bool{RetVarName: true}
	var hoisted []*cast.DeclStmt
	collectOriginalDecls(f.Body, &hoisted)
	for _, d := range hoisted {
		if !seen[d.Name] {
			seen[d.Name] = true
			pre = append(pre, &cast.DeclStmt{Name: d.Name, Type: d.Type})
		}
	}
	for _, d := range n.decls {
		pre = append(pre, d)
	}

	nf := &cast.FuncDef{
		Name:   f.Name,
		Ret:    f.Ret,
		Params: f.Params,
		Body:   &cast.Block{Stmts: append(pre, body...)},
		P:      f.P,
	}
	switch {
	case isVoid:
		return nf, ""
	case n.retVarOverride != "":
		return nf, n.retVarOverride
	default:
		return nf, RetVarName
	}
}

func collectOriginalDecls(s cast.Stmt, out *[]*cast.DeclStmt) {
	switch s := s.(type) {
	case *cast.Block:
		for _, sub := range s.Stmts {
			collectOriginalDecls(sub, out)
		}
	case *cast.DeclStmt:
		*out = append(*out, s)
	case *cast.IfStmt:
		collectOriginalDecls(s.Then, out)
		if s.Else != nil {
			collectOriginalDecls(s.Else, out)
		}
	case *cast.WhileStmt:
		collectOriginalDecls(s.Body, out)
	case *cast.LabeledStmt:
		collectOriginalDecls(s.Stmt, out)
	}
}

func (n *normalizer) stmts(blk *cast.Block) []cast.Stmt {
	var out []cast.Stmt
	for _, s := range blk.Stmts {
		out = append(out, n.stmt(s)...)
	}
	return out
}

func (n *normalizer) stmt(s cast.Stmt) []cast.Stmt {
	switch s := s.(type) {
	case *cast.Block:
		return n.stmts(s)
	case *cast.EmptyStmt:
		return nil
	case *cast.DeclStmt:
		if s.Init == nil {
			return nil // hoisted
		}
		as := &cast.AssignStmt{Lhs: cast.NewVar(s.Name), Rhs: s.Init}
		as.P = s.Pos()
		return n.stmt(as)
	case *cast.AssignStmt:
		return n.assign(s)
	case *cast.ExprStmt:
		call, ok := s.X.(*cast.Call)
		if !ok {
			return nil // checker already reported; drop
		}
		pre, nc := n.normalizeCallArgs(call)
		es := &cast.ExprStmt{X: nc}
		es.P = s.Pos()
		return append(pre, es)
	case *cast.IfStmt:
		pre, cond := n.cond(s.Cond)
		thn := n.stmtAsBlockStmts(s.Then)
		var els []cast.Stmt
		if s.Else != nil {
			els = n.stmtAsBlockStmts(s.Else)
		}
		ifs := &cast.IfStmt{Cond: cond, Then: &cast.Block{Stmts: thn}}
		if els != nil {
			ifs.Else = &cast.Block{Stmts: els}
		}
		ifs.P = s.Pos()
		return append(pre, ifs)
	case *cast.WhileStmt:
		return n.while(s)
	case *cast.GotoStmt:
		return []cast.Stmt{s}
	case *cast.LabeledStmt:
		inner := n.stmt(s.Stmt)
		if len(inner) == 0 {
			inner = []cast.Stmt{&cast.EmptyStmt{}}
		}
		lbl := &cast.LabeledStmt{Label: s.Label, Stmt: inner[0]}
		lbl.P = s.Pos()
		return append([]cast.Stmt{lbl}, inner[1:]...)
	case *cast.ReturnStmt:
		if n.retVarOverride != "" {
			// Single trailing "return r" kept verbatim.
			r := &cast.ReturnStmt{X: cast.NewVar(n.retVarOverride)}
			r.P = s.Pos()
			return []cast.Stmt{r}
		}
		if s.X == nil {
			g := &cast.GotoStmt{Label: ExitLabel}
			g.P = s.Pos()
			return []cast.Stmt{g}
		}
		as := &cast.AssignStmt{Lhs: cast.NewVar(RetVarName), Rhs: s.X}
		as.P = s.Pos()
		out := n.stmt(as)
		g := &cast.GotoStmt{Label: ExitLabel}
		g.P = s.Pos()
		return append(out, g)
	case *cast.BreakStmt:
		if len(n.breakLbl) == 0 {
			return nil
		}
		g := &cast.GotoStmt{Label: n.breakLbl[len(n.breakLbl)-1]}
		g.P = s.Pos()
		n.usedLbls[g.Label] = true
		return []cast.Stmt{g}
	case *cast.ContinueStmt:
		if len(n.contLbl) == 0 {
			return nil
		}
		g := &cast.GotoStmt{Label: n.contLbl[len(n.contLbl)-1]}
		g.P = s.Pos()
		n.usedLbls[g.Label] = true
		return []cast.Stmt{g}
	case *cast.AssertStmt:
		pre, cond := n.cond(s.X)
		a := &cast.AssertStmt{X: cond}
		a.P = s.Pos()
		return append(pre, a)
	case *cast.AssumeStmt:
		pre, cond := n.cond(s.X)
		a := &cast.AssumeStmt{X: cond}
		a.P = s.Pos()
		return append(pre, a)
	}
	return []cast.Stmt{s}
}

func (n *normalizer) stmtAsBlockStmts(s cast.Stmt) []cast.Stmt {
	out := n.stmt(s)
	if out == nil {
		out = []cast.Stmt{}
	}
	return out
}

// assign normalizes "lhs = rhs".
func (n *normalizer) assign(s *cast.AssignStmt) []cast.Stmt {
	// Boolean-valued RHS becomes a branch over 0/1 so the term language
	// downstream stays arithmetic.
	if isBoolExpr(s.Rhs) {
		pre, cond := n.cond(s.Rhs)
		preL, lhs := n.lvalue(s.Lhs)
		one := &cast.AssignStmt{Lhs: lhs, Rhs: cast.NewInt(1)}
		zero := &cast.AssignStmt{Lhs: cloneExpr(lhs), Rhs: cast.NewInt(0)}
		ifs := &cast.IfStmt{
			Cond: cond,
			Then: &cast.Block{Stmts: []cast.Stmt{one}},
			Else: &cast.Block{Stmts: []cast.Stmt{zero}},
		}
		ifs.P = s.Pos()
		return append(append(pre, preL...), ifs)
	}

	preL, lhs := n.lvalue(s.Lhs)

	// Call at top level of the RHS stays put.
	if call, ok := s.Rhs.(*cast.Call); ok {
		preC, nc := n.normalizeCallArgs(call)
		as := &cast.AssignStmt{Lhs: lhs, Rhs: nc}
		as.P = s.Pos()
		return append(append(preL, preC...), as)
	}

	preR, rhs := n.rvalue(s.Rhs)
	as := &cast.AssignStmt{Lhs: lhs, Rhs: rhs}
	as.P = s.Pos()
	return append(append(preL, preR...), as)
}

func (n *normalizer) while(s *cast.WhileStmt) []cast.Stmt {
	head := n.freshLabel("loop")
	exit := n.freshLabel("done")
	n.breakLbl = append(n.breakLbl, exit)
	n.contLbl = append(n.contLbl, head)
	wasUsedB := n.usedLbls[exit]
	pre, cond := n.cond(s.Cond)
	body := n.stmtAsBlockStmts(s.Body)
	n.breakLbl = n.breakLbl[:len(n.breakLbl)-1]
	n.contLbl = n.contLbl[:len(n.contLbl)-1]

	if len(pre) == 0 {
		// Keep the structured while; continue re-enters via the head label.
		w := &cast.WhileStmt{Cond: cond, Body: &cast.Block{Stmts: body}}
		w.P = s.Pos()
		out := []cast.Stmt{&cast.LabeledStmt{Label: head, Stmt: w}}
		if n.usedLbls[exit] && !wasUsedB {
			out = append(out, &cast.LabeledStmt{Label: exit, Stmt: &cast.EmptyStmt{}})
		}
		return out
	}

	// Condition needs a prelude: desugar to label+if+goto so the prelude is
	// re-executed on each iteration.
	//   head: pre; if (cond) { body; goto head; }
	//   exit: ;
	body = append(body, &cast.GotoStmt{Label: head})
	ifs := &cast.IfStmt{Cond: cond, Then: &cast.Block{Stmts: body}}
	ifs.P = s.Pos()
	seq := append(pre, ifs)
	out := []cast.Stmt{&cast.LabeledStmt{Label: head, Stmt: seq[0]}}
	out = append(out, seq[1:]...)
	out = append(out, &cast.LabeledStmt{Label: exit, Stmt: &cast.EmptyStmt{}})
	return out
}

// cond normalizes a condition into boolean shape, lifting calls and nested
// derefs into the returned prelude.
func (n *normalizer) cond(e cast.Expr) ([]cast.Stmt, cast.Expr) {
	switch e := e.(type) {
	case *cast.Binary:
		if e.Op.IsLogical() {
			preX, x := n.cond(e.X)
			preY, y := n.cond(e.Y)
			b := &cast.Binary{Op: e.Op, X: x, Y: y}
			b.P = e.Pos()
			return append(preX, preY...), b
		}
		if e.Op.IsRelational() {
			preX, x := n.rvalue(e.X)
			preY, y := n.rvalue(e.Y)
			b := &cast.Binary{Op: e.Op, X: x, Y: y}
			b.P = e.Pos()
			return append(preX, preY...), b
		}
	case *cast.Unary:
		if e.Op == cast.Not {
			pre, x := n.cond(e.X)
			u := &cast.Unary{Op: cast.Not, X: x}
			u.P = e.Pos()
			return pre, u
		}
	case *cast.IntLit:
		return nil, boolOfScalar(e, cast.IntType{})
	}
	// Scalar condition: compare against 0 / NULL.
	pre, x := n.rvalue(e)
	return pre, boolOfScalar(x, n.typeOf(x))
}

func boolOfScalar(e cast.Expr, t cast.Type) cast.Expr {
	var zero cast.Expr
	if cast.IsPointer(t) {
		zero = &cast.NullLit{}
	} else {
		zero = cast.NewInt(0)
	}
	b := &cast.Binary{Op: cast.Ne, X: e, Y: zero}
	b.P = e.Pos()
	return b
}

// isBoolExpr reports whether e is boolean-shaped (relational/logical/not).
func isBoolExpr(e cast.Expr) bool {
	switch e := e.(type) {
	case *cast.Binary:
		return e.Op.IsRelational() || e.Op.IsLogical()
	case *cast.Unary:
		return e.Op == cast.Not
	}
	return false
}

// lvalue normalizes an assignment target: at most one pointer indirection,
// no calls.
func (n *normalizer) lvalue(e cast.Expr) ([]cast.Stmt, cast.Expr) {
	switch e := e.(type) {
	case *cast.VarRef:
		return nil, e
	case *cast.Unary:
		if e.Op == cast.Deref_ {
			pre, base := n.simpleBase(e.X)
			u := &cast.Unary{Op: cast.Deref_, X: base}
			u.P = e.Pos()
			return pre, u
		}
	case *cast.Field:
		if e.Arrow {
			pre, base := n.simpleBase(e.X)
			f := &cast.Field{X: base, Name: e.Name, Arrow: true}
			f.P = e.Pos()
			return pre, f
		}
		pre, base := n.lvalue(e.X)
		f := &cast.Field{X: base, Name: e.Name}
		f.P = e.Pos()
		return pre, f
	case *cast.Index:
		preB, base := n.simpleBase(e.X)
		preI, idx := n.simpleIndex(e.I)
		ix := &cast.Index{X: base, I: idx}
		ix.P = e.Pos()
		return append(preB, preI...), ix
	}
	return n.rvalue(e)
}

// rvalue normalizes a general expression: calls lifted out, indirection
// chains flattened to depth one, pointer arithmetic collapsed.
func (n *normalizer) rvalue(e cast.Expr) ([]cast.Stmt, cast.Expr) {
	switch e := e.(type) {
	case *cast.IntLit, *cast.NullLit, *cast.VarRef:
		return nil, e
	case *cast.Unary:
		switch e.Op {
		case cast.Deref_:
			pre, base := n.simpleBase(e.X)
			u := &cast.Unary{Op: cast.Deref_, X: base}
			u.P = e.Pos()
			return pre, u
		case cast.AddrOf:
			pre, x := n.lvalue(e.X)
			u := &cast.Unary{Op: cast.AddrOf, X: x}
			u.P = e.Pos()
			return pre, u
		default:
			pre, x := n.rvalue(e.X)
			u := &cast.Unary{Op: e.Op, X: x}
			u.P = e.Pos()
			return pre, u
		}
	case *cast.Binary:
		// Logical memory model: pointer ± int collapses to the pointer.
		if (e.Op == cast.Add || e.Op == cast.Sub) && cast.IsPointer(n.typeOf(e)) {
			if cast.IsPointer(n.typeOf(e.X)) || isArray(n.typeOf(e.X)) {
				return n.rvalue(e.X)
			}
			return n.rvalue(e.Y)
		}
		preX, x := n.rvalue(e.X)
		preY, y := n.rvalue(e.Y)
		b := &cast.Binary{Op: e.Op, X: x, Y: y}
		b.P = e.Pos()
		return append(preX, preY...), b
	case *cast.Field:
		if e.Arrow {
			pre, base := n.simpleBase(e.X)
			f := &cast.Field{X: base, Name: e.Name, Arrow: true}
			f.P = e.Pos()
			return pre, f
		}
		pre, base := n.lvalue(e.X)
		f := &cast.Field{X: base, Name: e.Name}
		f.P = e.Pos()
		return pre, f
	case *cast.Index:
		preB, base := n.simpleBase(e.X)
		preI, idx := n.simpleIndex(e.I)
		ix := &cast.Index{X: base, I: idx}
		ix.P = e.Pos()
		return append(preB, preI...), ix
	case *cast.Call:
		pre, nc := n.normalizeCallArgs(e)
		t := n.freshTemp(n.typeOf(e))
		as := &cast.AssignStmt{Lhs: cast.NewVar(t), Rhs: nc}
		as.P = e.Pos()
		return append(pre, as), cast.NewVar(t)
	}
	return nil, e
}

func isArray(t cast.Type) bool {
	_, ok := t.(cast.ArrayType)
	return ok
}

// simpleBase normalizes the base of an indirection (deref, ->, index) so
// the result is a plain variable (possibly a fresh temp), guaranteeing no
// multiple dereferences of a pointer in one expression.
func (n *normalizer) simpleBase(e cast.Expr) ([]cast.Stmt, cast.Expr) {
	pre, x := n.rvalue(e)
	if _, ok := x.(*cast.VarRef); ok {
		return pre, x
	}
	t := n.freshTemp(n.typeOf(x))
	as := &cast.AssignStmt{Lhs: cast.NewVar(t), Rhs: x}
	as.P = e.Pos()
	return append(pre, as), cast.NewVar(t)
}

// simpleIndex normalizes an array subscript; subscripts containing
// indirection or calls are lifted into temps.
func (n *normalizer) simpleIndex(e cast.Expr) ([]cast.Stmt, cast.Expr) {
	pre, x := n.rvalue(e)
	if containsIndirection(x) {
		t := n.freshTemp(cast.IntType{})
		as := &cast.AssignStmt{Lhs: cast.NewVar(t), Rhs: x}
		as.P = e.Pos()
		return append(pre, as), cast.NewVar(t)
	}
	return pre, x
}

func containsIndirection(e cast.Expr) bool {
	switch e := e.(type) {
	case *cast.Unary:
		return e.Op == cast.Deref_ || containsIndirection(e.X)
	case *cast.Binary:
		return containsIndirection(e.X) || containsIndirection(e.Y)
	case *cast.Field:
		return true
	case *cast.Index:
		return true
	}
	return false
}

// normalizeCallArgs normalizes every argument to be call- and
// nested-indirection-free.
func (n *normalizer) normalizeCallArgs(c *cast.Call) ([]cast.Stmt, *cast.Call) {
	var pre []cast.Stmt
	args := make([]cast.Expr, len(c.Args))
	for i, a := range c.Args {
		p, na := n.rvalue(a)
		pre = append(pre, p...)
		args[i] = na
	}
	nc := &cast.Call{Name: c.Name, Args: args}
	nc.P = c.Pos()
	return pre, nc
}

// cloneExpr makes a structural copy of an expression (needed when the same
// lvalue appears in both branches of a desugared boolean assignment, since
// type information is keyed by node identity).
func cloneExpr(e cast.Expr) cast.Expr {
	switch e := e.(type) {
	case *cast.IntLit:
		c := *e
		return &c
	case *cast.NullLit:
		c := *e
		return &c
	case *cast.VarRef:
		c := *e
		return &c
	case *cast.Unary:
		c := *e
		c.X = cloneExpr(e.X)
		return &c
	case *cast.Binary:
		c := *e
		c.X = cloneExpr(e.X)
		c.Y = cloneExpr(e.Y)
		return &c
	case *cast.Field:
		c := *e
		c.X = cloneExpr(e.X)
		return &c
	case *cast.Index:
		c := *e
		c.X = cloneExpr(e.X)
		c.I = cloneExpr(e.I)
		return &c
	case *cast.Call:
		c := *e
		c.Args = make([]cast.Expr, len(e.Args))
		for i, a := range e.Args {
			c.Args[i] = cloneExpr(a)
		}
		return &c
	}
	return e
}
