// Package cinterp is a concrete interpreter for normalized MiniC programs
// over the little-machine memory model of package form (every variable
// lives at a distinct address; all reads and writes go through a flat
// integer memory). It is a testing substrate: the paper's soundness
// theorem — every feasible C execution maps to a feasible boolean-program
// execution with matching predicate valuations — is checked property-style
// by replaying interpreter runs against Bebop's reachable-state sets.
package cinterp

import (
	"fmt"
	"math/rand"

	"predabs/internal/cast"
	"predabs/internal/cnorm"
	"predabs/internal/form"
)

// Status describes how a run ended.
type Status int

// Run outcomes.
const (
	// Completed: the entry function returned normally.
	Completed Status = iota
	// Blocked: an assume statement filtered the execution out.
	Blocked
	// AssertFailed: an assert evaluated to false.
	AssertFailed
	// OutOfFuel: the step budget was exhausted.
	OutOfFuel
	// Stuck: a runtime error (NULL dereference, missing function).
	Stuck
)

// String names the outcome.
func (s Status) String() string {
	switch s {
	case Completed:
		return "completed"
	case Blocked:
		return "blocked"
	case AssertFailed:
		return "assert-failed"
	case OutOfFuel:
		return "out-of-fuel"
	case Stuck:
		return "stuck"
	}
	return "?"
}

// StmtVisit records one statement about to execute, with the frame's
// variable renaming in force (for predicate evaluation).
type StmtVisit struct {
	Fn   string
	Stmt cast.Stmt
	// Rename maps source-local names to the frame-qualified environment
	// names; globals are unrenamed.
	Rename map[string]string
	// Env is the machine state BEFORE the statement (shared, read-only).
	Env *form.Env
}

// Interp executes normalized MiniC programs.
type Interp struct {
	Res *cnorm.Result
	// Env is the machine state (callers pre-populate globals/heap).
	Env *form.Env
	// Rand initializes uninitialized locals (nil = zero).
	Rand *rand.Rand
	// MaxSteps bounds execution (default 20000).
	MaxSteps int
	// OnStmt, if set, observes every assignment/call/assume/assert about
	// to execute.
	OnStmt func(StmtVisit)

	steps  int
	frameN int
	status Status
}

// instr is one flattened instruction.
type instr struct {
	kind   byte // 'a'=assign, 'c'=call stmt, 'u'=assume, 't'=assert, 'g'=goto, 'b'=branch, 'r'=return, 's'=skip
	stmt   cast.Stmt
	cond   cast.Expr
	tTgt   int
	fTgt   int
	gTgt   int
	retVar string
}

// flatten lowers a function body to a jump-threaded instruction list.
type flattener struct {
	instrs []instr
	labels map[string]int
	// fixups are the gotos whose label flatten resolves at the end.
	fixups []fixup
}

// fixup is a goto at instrs[idx] to be pointed at label.
type fixup struct {
	idx   int
	label string
}

func (fl *flattener) emit(i instr) int {
	fl.instrs = append(fl.instrs, i)
	return len(fl.instrs) - 1
}

func (fl *flattener) stmt(s cast.Stmt) {
	switch s := s.(type) {
	case *cast.Block:
		for _, sub := range s.Stmts {
			fl.stmt(sub)
		}
	case *cast.DeclStmt, *cast.EmptyStmt:
		// no-op
	case *cast.LabeledStmt:
		at := len(fl.instrs)
		fl.labels[s.Label] = at
		fl.stmt(s.Stmt)
		if len(fl.instrs) == at {
			// Label on an empty statement: pin to a skip.
			fl.emit(instr{kind: 's', stmt: s})
		}
	case *cast.AssignStmt:
		fl.emit(instr{kind: 'a', stmt: s})
	case *cast.ExprStmt:
		fl.emit(instr{kind: 'c', stmt: s})
	case *cast.AssumeStmt:
		fl.emit(instr{kind: 'u', stmt: s, cond: s.X})
	case *cast.AssertStmt:
		fl.emit(instr{kind: 't', stmt: s, cond: s.X})
	case *cast.GotoStmt:
		idx := fl.emit(instr{kind: 'g', stmt: s})
		fl.fixups = append(fl.fixups, fixup{idx, s.Label})
	case *cast.IfStmt:
		bIdx := fl.emit(instr{kind: 'b', stmt: s, cond: s.Cond})
		fl.instrs[bIdx].tTgt = len(fl.instrs)
		fl.stmt(s.Then)
		if s.Else != nil {
			gIdx := fl.emit(instr{kind: 'g', stmt: s})
			fl.instrs[bIdx].fTgt = len(fl.instrs)
			fl.stmt(s.Else)
			fl.instrs[gIdx].gTgt = len(fl.instrs)
		} else {
			fl.instrs[bIdx].fTgt = len(fl.instrs)
		}
	case *cast.WhileStmt:
		top := len(fl.instrs)
		bIdx := fl.emit(instr{kind: 'b', stmt: s, cond: s.Cond})
		fl.instrs[bIdx].tTgt = len(fl.instrs)
		fl.stmt(s.Body)
		g := fl.emit(instr{kind: 'g', stmt: s})
		fl.instrs[g].gTgt = top
		fl.instrs[bIdx].fTgt = len(fl.instrs)
	case *cast.ReturnStmt:
		ret := ""
		if s.X != nil {
			if v, ok := s.X.(*cast.VarRef); ok {
				ret = v.Name
			}
		}
		fl.emit(instr{kind: 'r', stmt: s, retVar: ret})
	}
}

func flatten(f *cast.FuncDef) ([]instr, error) {
	fl := &flattener{labels: map[string]int{}}
	fl.stmt(f.Body)
	fl.emit(instr{kind: 'r'})
	for _, fix := range fl.fixups {
		tgt, ok := fl.labels[fix.label]
		if !ok {
			return nil, fmt.Errorf("cinterp: %s: unknown label %q", f.Name, fix.label)
		}
		fl.instrs[fix.idx].gTgt = tgt
	}
	return fl.instrs, nil
}

// Run executes the entry function with the given argument values.
func (in *Interp) Run(entry string, args []int64) (Status, int64, error) {
	if in.Env == nil {
		in.Env = form.NewEnv()
	}
	if in.MaxSteps == 0 {
		in.MaxSteps = 20000
	}
	in.steps = 0
	in.frameN = 0
	in.status = Completed
	ret, err := in.call(entry, args)
	if err != nil {
		return Stuck, 0, err
	}
	return in.status, ret, nil
}

// frame carries one activation's renaming.
type frame struct {
	fn     string
	rename map[string]string
}

func (in *Interp) newFrame(fn string) *frame {
	in.frameN++
	f := &frame{fn: fn, rename: map[string]string{}}
	for v := range in.Res.Info.FuncVars[fn] {
		f.rename[v] = fmt.Sprintf("f%d::%s", in.frameN, v)
	}
	return f
}

// renameTerm qualifies frame locals in a term.
func (f *frame) renameTerm(t form.Term) form.Term {
	for _, v := range form.TermVars(t) {
		if q, ok := f.rename[v]; ok {
			t = form.SubstTerm(t, form.Var{Name: v}, form.Var{Name: q})
		}
	}
	return t
}

// RenameFormula qualifies frame locals in a formula (exported for the
// soundness test's predicate evaluation).
func RenameFormula(rename map[string]string, fl form.Formula) form.Formula {
	for _, v := range form.FormulaVars(fl) {
		if q, ok := rename[v]; ok {
			fl = form.Subst(fl, form.Var{Name: v}, form.Var{Name: q})
		}
	}
	return fl
}

func (in *Interp) call(fn string, args []int64) (int64, error) {
	f := in.Res.Prog.Func(fn)
	if f == nil {
		return 0, fmt.Errorf("cinterp: no function %q", fn)
	}
	fr := in.newFrame(fn)
	// Bind parameters; initialize other locals (uninitialized in C).
	for i, p := range f.Params {
		var v int64
		if i < len(args) {
			v = args[i]
		}
		if err := in.Env.Store(form.Var{Name: fr.rename[p.Name]}, v); err != nil {
			return 0, err
		}
	}
	isParam := map[string]bool{}
	for _, p := range f.Params {
		isParam[p.Name] = true
	}
	for v := range in.Res.Info.FuncVars[fn] {
		if isParam[v] {
			continue
		}
		var init int64
		if in.Rand != nil {
			init = int64(in.Rand.Intn(7)) - 3
		}
		if err := in.Env.Store(form.Var{Name: fr.rename[v]}, init); err != nil {
			return 0, err
		}
	}

	instrs, err := flatten(f)
	if err != nil {
		return 0, err
	}
	pc := 0
	for {
		in.steps++
		if in.steps > in.MaxSteps {
			in.status = OutOfFuel
			return 0, nil
		}
		if pc >= len(instrs) {
			return 0, nil
		}
		ins := instrs[pc]
		switch ins.kind {
		case 's':
			pc++
		case 'g':
			pc = ins.gTgt
		case 'b':
			in.visit(fr, ins.stmt)
			v, err := in.evalCond(fr, ins.cond)
			if err != nil {
				return 0, err
			}
			if v {
				pc = ins.tTgt
			} else {
				pc = ins.fTgt
			}
		case 'u':
			in.visit(fr, ins.stmt)
			v, err := in.evalCond(fr, ins.cond)
			if err != nil {
				return 0, err
			}
			if !v {
				in.status = Blocked
				return 0, nil
			}
			pc++
		case 't':
			in.visit(fr, ins.stmt)
			v, err := in.evalCond(fr, ins.cond)
			if err != nil {
				return 0, err
			}
			if !v {
				in.status = AssertFailed
				return 0, nil
			}
			pc++
		case 'a':
			as := ins.stmt.(*cast.AssignStmt)
			in.visit(fr, as)
			if call, ok := as.Rhs.(*cast.Call); ok {
				rv, err := in.doCall(fr, call)
				if err != nil || in.status != Completed {
					return 0, err
				}
				if err := in.store(fr, as.Lhs, rv); err != nil {
					return 0, err
				}
			} else {
				rv, err := in.evalExpr(fr, as.Rhs)
				if err != nil {
					return 0, err
				}
				if err := in.store(fr, as.Lhs, rv); err != nil {
					return 0, err
				}
			}
			pc++
		case 'c':
			es := ins.stmt.(*cast.ExprStmt)
			in.visit(fr, es)
			call, ok := es.X.(*cast.Call)
			if !ok {
				pc++
				continue
			}
			if _, err := in.doCall(fr, call); err != nil || in.status != Completed {
				return 0, err
			}
			pc++
		case 'r':
			if ins.retVar != "" {
				name := ins.retVar
				if q, ok := fr.rename[name]; ok {
					name = q // local return variable; globals stay bare
				}
				return in.Env.Eval(form.Var{Name: name})
			}
			return 0, nil
		}
	}
}

func (in *Interp) visit(fr *frame, s cast.Stmt) {
	if in.OnStmt != nil {
		in.OnStmt(StmtVisit{Fn: fr.fn, Stmt: s, Rename: fr.rename, Env: in.Env})
	}
}

func (in *Interp) doCall(fr *frame, call *cast.Call) (int64, error) {
	args := make([]int64, len(call.Args))
	for i, a := range call.Args {
		v, err := in.evalExpr(fr, a)
		if err != nil {
			return 0, err
		}
		args[i] = v
	}
	return in.call(call.Name, args)
}

func (in *Interp) evalExpr(fr *frame, e cast.Expr) (int64, error) {
	t, err := form.FromExpr(e)
	if err != nil {
		return 0, err
	}
	return in.Env.Eval(fr.renameTerm(t))
}

func (in *Interp) evalCond(fr *frame, e cast.Expr) (bool, error) {
	fl, err := form.FromCond(e)
	if err != nil {
		return false, err
	}
	return in.Env.EvalFormula(RenameFormula(fr.rename, fl))
}

func (in *Interp) store(fr *frame, lhs cast.Expr, v int64) error {
	t, err := form.FromExpr(lhs)
	if err != nil {
		return err
	}
	return in.Env.Store(fr.renameTerm(t), v)
}
