// Package bpinterp executes boolean programs concretely, resolving
// nondeterminism through a pluggable chooser. It serves as a reference
// semantics: property tests cross-check Bebop's reachability results and
// the soundness of the C2bp abstraction against interpreted runs.
package bpinterp

import (
	"fmt"
	"math/rand"

	"predabs/internal/bp"
)

// Chooser resolves nondeterminism: Choose(n) returns a value in [0, n).
type Chooser interface {
	Choose(n int) int
}

// RandChooser resolves nondeterminism uniformly at random.
type RandChooser struct{ R *rand.Rand }

// Choose returns a uniform value in [0, n).
func (c RandChooser) Choose(n int) int { return c.R.Intn(n) }

// Status describes how a run ended.
type Status int

// Run outcomes.
const (
	// Completed: the entry procedure returned.
	Completed Status = iota
	// Blocked: an assume or enforce filtered the execution out.
	Blocked
	// AssertFailed: an assert evaluated to false.
	AssertFailed
	// OutOfFuel: the step budget was exhausted (possible livelock).
	OutOfFuel
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
	}
	return "?"
}

// Result is the outcome of a run.
type Result struct {
	Status Status
	// FailProc/FailStmt locate a failed assert.
	FailProc string
	FailStmt int
	// Globals holds the final global values (Completed runs).
	Globals map[string]bool
}

// Interp executes a resolved boolean program.
type Interp struct {
	Prog     *bp.Program
	Choice   Chooser
	MaxSteps int

	steps  int
	global map[string]bool
}

type frame struct {
	vars map[string]bool
}

// Run executes the entry procedure with nondeterministic globals, locals
// and parameters.
func (in *Interp) Run(entry string) (*Result, error) {
	pr := in.Prog.Proc(entry)
	if pr == nil {
		return nil, fmt.Errorf("bpinterp: no procedure %q", entry)
	}
	if in.MaxSteps == 0 {
		in.MaxSteps = 100000
	}
	in.steps = 0
	in.global = map[string]bool{}
	for _, g := range in.Prog.Globals {
		in.global[g] = in.nondet()
	}
	args := make([]bool, len(pr.Params))
	for i := range args {
		args[i] = in.nondet()
	}
	status, _, failP, failS := in.call(pr, args)
	res := &Result{
		Status:   status,
		FailProc: failP,
		FailStmt: failS,
		Globals:  in.global,
	}
	return res, nil
}

func (in *Interp) nondet() bool { return in.Choice.Choose(2) == 1 }

// call runs a procedure to completion. It returns the status, the return
// values, and the failure location for AssertFailed.
func (in *Interp) call(pr *bp.Proc, args []bool) (Status, []bool, string, int) {
	f := &frame{vars: map[string]bool{}}
	for i, p := range pr.Params {
		f.vars[p] = args[i]
	}
	for _, l := range pr.Locals {
		f.vars[l] = in.nondet()
	}
	// enforce must hold in the initial state.
	if pr.Enforce != nil && !in.evalTotal(f, pr.Enforce) {
		return Blocked, nil, "", 0
	}

	pc := 0
	for {
		if pc >= len(pr.Stmts) {
			// Falling off the end of a void procedure returns.
			return Completed, nil, "", 0
		}
		in.steps++
		if in.steps > in.MaxSteps {
			return OutOfFuel, nil, "", 0
		}
		s := pr.Stmts[pc]
		switch s.Kind {
		case bp.Skip:
			pc++
		case bp.Assign:
			vals := make([]bool, len(s.Rhs))
			for i, e := range s.Rhs {
				vals[i] = in.eval(f, e)
			}
			for i, v := range s.Lhs {
				in.set(f, v, vals[i])
			}
			if pr.Enforce != nil && !in.evalTotal(f, pr.Enforce) {
				return Blocked, nil, "", 0
			}
			pc++
		case bp.Assume:
			if !in.eval(f, s.Cond) {
				return Blocked, nil, "", 0
			}
			pc++
		case bp.Assert:
			if !in.eval(f, s.Cond) {
				return AssertFailed, nil, pr.Name, pc
			}
			pc++
		case bp.Goto:
			tgt := s.Targets[in.Choice.Choose(len(s.Targets))]
			idx, ok := pr.LabelIndex(tgt)
			if !ok {
				return Blocked, nil, "", 0
			}
			pc = idx
		case bp.Call:
			callee := in.Prog.Proc(s.Callee)
			argv := make([]bool, len(s.Args))
			for i, e := range s.Args {
				argv[i] = in.eval(f, e)
			}
			st, rets, fp, fs := in.call(callee, argv)
			if st != Completed {
				return st, nil, fp, fs
			}
			for i, v := range s.CallLhs {
				in.set(f, v, rets[i])
			}
			if pr.Enforce != nil && !in.evalTotal(f, pr.Enforce) {
				return Blocked, nil, "", 0
			}
			pc++
		case bp.Return:
			vals := make([]bool, len(s.RetVals))
			for i, e := range s.RetVals {
				vals[i] = in.eval(f, e)
			}
			return Completed, vals, "", 0
		default:
			pc++
		}
	}
}

func (in *Interp) set(f *frame, name string, val bool) {
	if _, ok := f.vars[name]; ok {
		f.vars[name] = val
		return
	}
	in.global[name] = val
}

func (in *Interp) get(f *frame, name string) bool {
	if v, ok := f.vars[name]; ok {
		return v
	}
	return in.global[name]
}

// eval evaluates an expression, resolving * and unresolved choose
// nondeterministically.
func (in *Interp) eval(f *frame, e bp.Expr) bool {
	switch e := e.(type) {
	case bp.Const:
		return e.Val
	case bp.Ref:
		return in.get(f, e.Name)
	case bp.Unknown:
		return in.nondet()
	case bp.Not:
		return !in.eval(f, e.X)
	case bp.Bin:
		x := in.eval(f, e.X)
		y := in.eval(f, e.Y)
		switch e.Op {
		case bp.And:
			return x && y
		case bp.Or:
			return x || y
		case bp.Implies:
			return !x || y
		case bp.Iff:
			return x == y
		}
	case bp.Choose:
		if in.eval(f, e.Pos) {
			return true
		}
		if in.eval(f, e.Neg) {
			return false
		}
		return in.nondet()
	}
	return false
}

// evalTotal evaluates a deterministic expression (enforce invariants must
// not contain * or choose).
func (in *Interp) evalTotal(f *frame, e bp.Expr) bool {
	return in.eval(f, e)
}
