// Package alias implements a flow-insensitive, context-insensitive,
// unification-based may-alias analysis over MiniC programs, playing the
// role of Das's points-to algorithm in the C2bp paper (Section 4.2): it
// prunes Morris-axiom alias case splits in weakest preconditions and
// limits which predicates an assignment or call can affect.
//
// The model is Steensgaard-style with field-sensitive abstract objects:
// every variable has a cell node; every cell has at most one points-to
// target (unified on conflicts) and a lazily created child node per field.
// Two locations may alias iff their cell nodes share a union-find
// representative, with the classic refinements that two distinct named
// variables never alias and a variable whose address is never taken cannot
// be aliased by any dereference.
package alias

import (
	"predabs/internal/cast"
	"predabs/internal/cnorm"
)

// elemField is the pseudo-field used for array element cells.
const elemField = "$elem"

// node is an abstract memory cell in the Steensgaard graph.
type node struct {
	parent *node
	pts    *node
	fields map[string]*node
}

func (n *node) find() *node {
	root := n
	for root.parent != nil {
		root = root.parent
	}
	for n.parent != nil {
		next := n.parent
		n.parent = root
		n = next
	}
	return root
}

// Analysis is the result of running the points-to analysis on a program.
type Analysis struct {
	res *cnorm.Result
	// vars maps scoped variable keys ("fn\x00name" or "\x00name") to cells.
	vars map[string]*node
	// addrTaken records variables whose address is taken, per scope key.
	addrTaken map[string]bool
	// Queries counts MayAlias queries (cache effectiveness metric).
	Queries int
	cache   map[string]bool
}

// Options configures the analysis.
type Options struct {
	// OpenCallers (the sound default) assumes functions without callers in
	// the program can be invoked by unknown code whose pointer arguments
	// alias each other and pointer globals. Disabling it reproduces the
	// paper's auxiliary-variable ("ghost observer") idiom, where variables
	// like Figure 3's h are exempted from aliasing with the heap they
	// observe; see EXPERIMENTS.md for the soundness discussion.
	OpenCallers bool
}

// Analyze runs the analysis over the normalized program with the sound
// default options.
func Analyze(res *cnorm.Result) *Analysis {
	return AnalyzeOpts(res, Options{OpenCallers: true})
}

// AnalyzeOpts runs the analysis with explicit options.
func AnalyzeOpts(res *cnorm.Result, opts Options) *Analysis {
	a := &Analysis{
		res:       res,
		vars:      map[string]*node{},
		addrTaken: map[string]bool{},
		cache:     map[string]bool{},
	}
	for _, f := range res.Prog.Funcs {
		a.processStmt(f.Name, f.Body)
	}
	if opts.OpenCallers {
		a.openFunctionParams()
	}
	return a
}

// openFunctionParams makes the analysis sound for open programs: a
// function with no callers inside the program can be an entry point, and
// an unknown caller may pass pointer arguments that alias each other and
// any pointer global (e.g. Figure 3's mark(list, h), where h may point
// into the list). The points-to targets of such parameters are unified
// pairwise and with pointer globals. Self-recursion does not count as a
// caller.
func (a *Analysis) openFunctionParams() {
	called := map[string]bool{}
	for _, f := range a.res.Prog.Funcs {
		var walk func(s cast.Stmt)
		scanCalls := func(e cast.Expr) {
			if c, ok := e.(*cast.Call); ok && c.Name != f.Name {
				called[c.Name] = true
			}
		}
		walk = func(s cast.Stmt) {
			switch s := s.(type) {
			case *cast.Block:
				for _, sub := range s.Stmts {
					walk(sub)
				}
			case *cast.AssignStmt:
				scanCalls(s.Rhs)
			case *cast.ExprStmt:
				scanCalls(s.X)
			case *cast.IfStmt:
				walk(s.Then)
				if s.Else != nil {
					walk(s.Else)
				}
			case *cast.WhileStmt:
				walk(s.Body)
			case *cast.LabeledStmt:
				walk(s.Stmt)
			}
		}
		walk(f.Body)
	}

	// Pointer globals participate in every open function's alias class.
	var globalCells []*node
	for name, t := range a.res.Info.GlobalVars {
		if isPointerish(t) {
			globalCells = append(globalCells, a.varCell("", name))
		}
	}
	for _, f := range a.res.Prog.Funcs {
		if called[f.Name] {
			continue
		}
		// Collect the "content" node of each pointer-ish parameter: the
		// points-to target for pointers, the element cell for arrays (an
		// unknown caller may pass overlapping arrays).
		var contents []*node
		for _, p := range f.Params {
			cell := a.varCell(f.Name, p.Name)
			switch p.Type.(type) {
			case cast.PointerType:
				contents = append(contents, pts(cell))
			case cast.ArrayType:
				contents = append(contents, field(cell, elemField))
			}
		}
		for _, g := range globalCells {
			contents = append(contents, pts(g))
		}
		for i := 1; i < len(contents); i++ {
			unify(contents[0], contents[i])
		}
	}
}

func isPointerish(t cast.Type) bool {
	switch t.(type) {
	case cast.PointerType, cast.ArrayType:
		return true
	}
	return false
}

func scopeKey(fn, name string) string { return fn + "\x00" + name }

// varCell returns the cell of variable name as seen from function fn,
// resolving locals before globals.
func (a *Analysis) varCell(fn, name string) *node {
	key := scopeKey(fn, name)
	if _, isLocal := a.res.Info.FuncVars[fn][name]; !isLocal {
		if _, isGlobal := a.res.Info.GlobalVars[name]; isGlobal {
			key = scopeKey("", name)
		}
	}
	if n, ok := a.vars[key]; ok {
		return n
	}
	n := &node{}
	a.vars[key] = n
	return n
}

func (a *Analysis) markAddrTaken(fn, name string) {
	key := scopeKey(fn, name)
	if _, isLocal := a.res.Info.FuncVars[fn][name]; !isLocal {
		if _, isGlobal := a.res.Info.GlobalVars[name]; isGlobal {
			key = scopeKey("", name)
		}
	}
	a.addrTaken[key] = true
}

// pts returns (creating if needed) the points-to target of n's class.
func pts(n *node) *node {
	r := n.find()
	if r.pts == nil {
		r.pts = &node{}
	}
	return r.pts.find()
}

// field returns (creating if needed) the field child of n's class.
func field(n *node, f string) *node {
	r := n.find()
	if r.fields == nil {
		r.fields = map[string]*node{}
	}
	if c, ok := r.fields[f]; ok {
		return c.find()
	}
	c := &node{}
	r.fields[f] = c
	return c
}

// unify merges the classes of x and y, recursively merging points-to
// targets and field children. Cycles terminate because parents are linked
// before recursion.
func unify(x, y *node) {
	x, y = x.find(), y.find()
	if x == y {
		return
	}
	y.parent = x
	// Merge points-to targets.
	if x.pts == nil {
		x.pts = y.pts
	} else if y.pts != nil {
		unify(x.pts, y.pts)
	}
	// Merge fields.
	if x.fields == nil {
		x.fields = y.fields
	} else if y.fields != nil {
		for f, c := range y.fields {
			if xc, ok := x.fields[f]; ok {
				unify(xc, c)
			} else {
				x.fields[f] = c
			}
		}
	}
	y.pts = nil
	y.fields = nil
}

// cellOf returns the memory cell denoted by a location expression, or nil
// when the expression is not a location (e.g. arithmetic).
func (a *Analysis) cellOf(fn string, e cast.Expr) *node {
	switch e := e.(type) {
	case *cast.VarRef:
		return a.varCell(fn, e.Name)
	case *cast.Unary:
		switch e.Op {
		case cast.Deref_:
			base := a.cellOf(fn, e.X)
			if base == nil {
				return nil
			}
			return pts(base)
		}
		return nil
	case *cast.Field:
		if e.Arrow {
			base := a.cellOf(fn, e.X)
			if base == nil {
				return nil
			}
			return field(pts(base), e.Name)
		}
		base := a.cellOf(fn, e.X)
		if base == nil {
			return nil
		}
		return field(base, e.Name)
	case *cast.Index:
		base := a.cellOf(fn, e.X)
		if base == nil {
			return nil
		}
		t := a.res.Info.TypeOf(e.X)
		if cast.IsPointer(t) {
			// p[i] ≡ *(p+i) ≡ *p under the logical model.
			return field(pts(base), elemField)
		}
		return field(base, elemField)
	}
	return nil
}

// valueTarget returns the cell class that the value of pointer expression e
// may point to (creating fresh cells as needed), or nil for non-pointer or
// unknown shapes.
func (a *Analysis) valueTarget(fn string, e cast.Expr) *node {
	switch e := e.(type) {
	case *cast.NullLit, *cast.IntLit:
		return nil
	case *cast.Unary:
		if e.Op == cast.AddrOf {
			// The value of &x is the cell of x itself.
			a.markTakenIn(fn, e.X)
			return a.cellOf(fn, e.X)
		}
	case *cast.Binary:
		// Pointer arithmetic was collapsed by the normalizer; any residue
		// is treated via its pointer operand.
		if t := a.valueTarget(fn, e.X); t != nil {
			return t
		}
		return a.valueTarget(fn, e.Y)
	case *cast.Call:
		callee := a.res.Prog.Func(e.Name)
		if callee == nil {
			return nil
		}
		// Value flows out of the callee's return variable.
		if _, void := callee.Ret.(cast.VoidType); void {
			return nil
		}
		retCell := a.varCell(e.Name, cnorm.RetVarName)
		return pts(retCell)
	}
	if cell := a.cellOf(fn, e); cell != nil {
		// Array-typed expressions decay to a pointer to their element cell.
		if at, ok := a.res.Info.TypeOf(e).(cast.ArrayType); ok {
			_ = at
			return field(cell, elemField)
		}
		return pts(cell)
	}
	return nil
}

func (a *Analysis) markTakenIn(fn string, e cast.Expr) {
	if v, ok := e.(*cast.VarRef); ok {
		a.markAddrTaken(fn, v.Name)
	}
}

// flowInto records the assignment target := source-value.
func (a *Analysis) flowInto(fn string, lhsCell *node, rhs cast.Expr) {
	if lhsCell == nil {
		return
	}
	src := a.valueTarget(fn, rhs)
	if src == nil {
		return
	}
	unify(pts(lhsCell), src)
}

func (a *Analysis) processStmt(fn string, s cast.Stmt) {
	switch s := s.(type) {
	case *cast.Block:
		for _, sub := range s.Stmts {
			a.processStmt(fn, sub)
		}
	case *cast.AssignStmt:
		lhsT := a.res.Info.TypeOf(s.Lhs)
		lhsCell := a.cellOf(fn, s.Lhs)
		if call, ok := s.Rhs.(*cast.Call); ok {
			a.processCall(fn, call)
		}
		switch lhsT.(type) {
		case cast.PointerType, cast.ArrayType:
			a.flowInto(fn, lhsCell, s.Rhs)
		case cast.StructType:
			// Whole-struct assignment: conservatively merge the cells.
			if rhsCell := a.cellOf(fn, s.Rhs); rhsCell != nil && lhsCell != nil {
				unify(lhsCell, rhsCell)
			}
		default:
			// Integer assignment: the address-of operator can still smuggle
			// a pointer value through an int; handle &x on the RHS anyway.
			a.scanAddrTaken(fn, s.Rhs)
		}
	case *cast.ExprStmt:
		if call, ok := s.X.(*cast.Call); ok {
			a.processCall(fn, call)
		}
	case *cast.IfStmt:
		a.scanAddrTaken(fn, s.Cond)
		a.processStmt(fn, s.Then)
		if s.Else != nil {
			a.processStmt(fn, s.Else)
		}
	case *cast.WhileStmt:
		a.scanAddrTaken(fn, s.Cond)
		a.processStmt(fn, s.Body)
	case *cast.LabeledStmt:
		a.processStmt(fn, s.Stmt)
	case *cast.AssertStmt:
		a.scanAddrTaken(fn, s.X)
	case *cast.AssumeStmt:
		a.scanAddrTaken(fn, s.X)
	}
}

// processCall unifies arguments with parameters (call-by-value).
func (a *Analysis) processCall(fn string, c *cast.Call) {
	callee := a.res.Prog.Func(c.Name)
	if callee == nil {
		return
	}
	for i, arg := range c.Args {
		if i >= len(callee.Params) {
			break
		}
		p := callee.Params[i]
		switch p.Type.(type) {
		case cast.PointerType, cast.ArrayType:
			// Argument value (caller scope) flows into the parameter cell
			// (callee scope): call-by-value pointer passing.
			pCell := a.varCell(c.Name, p.Name)
			if src := a.valueTarget(fn, arg); src != nil {
				unify(pts(pCell), src)
			}
		default:
			a.scanAddrTaken(fn, arg)
		}
	}
}

func (a *Analysis) scanAddrTaken(fn string, e cast.Expr) {
	switch e := e.(type) {
	case *cast.Unary:
		if e.Op == cast.AddrOf {
			a.markTakenIn(fn, e.X)
		}
		a.scanAddrTaken(fn, e.X)
	case *cast.Binary:
		a.scanAddrTaken(fn, e.X)
		a.scanAddrTaken(fn, e.Y)
	case *cast.Field:
		a.scanAddrTaken(fn, e.X)
	case *cast.Index:
		a.scanAddrTaken(fn, e.X)
		a.scanAddrTaken(fn, e.I)
	case *cast.Call:
		for _, arg := range e.Args {
			a.scanAddrTaken(fn, arg)
		}
	}
}
