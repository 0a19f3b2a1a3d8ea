// Package newton implements SLAM's predicate-discovery step (the paper's
// Section 6.1: "Newton, a tool that discovers additional predicates to
// refine the boolean program, by analyzing the feasibility of paths in
// the C program").
//
// Given a counterexample trace through the boolean program, Newton maps
// each step back to its originating C statement, renames locals per call
// frame, and decides feasibility by a backward weakest-precondition sweep
// along the path: the path is feasible iff the accumulated condition over
// the initial state is satisfiable. On infeasibility, the atoms of the
// contradiction become candidate predicates for the next C2bp round.
package newton

import (
	"fmt"
	"strings"

	"predabs/internal/abstract"
	"predabs/internal/alias"
	"predabs/internal/bebop"
	"predabs/internal/bp"
	"predabs/internal/budget"
	"predabs/internal/cast"
	"predabs/internal/cnorm"
	"predabs/internal/form"
	"predabs/internal/prover"
	tracepkg "predabs/internal/trace"
	"predabs/internal/wp"
)

// Result reports the feasibility analysis of one trace.
type Result struct {
	// Feasible means the counterexample corresponds to a real C execution
	// (as far as the prover can tell): SLAM reports the error.
	Feasible bool
	// NewPreds maps scope names (procedure name or "global") to predicate
	// source texts to add for refinement.
	NewPreds map[string][]string
	// GaveUp reports that the feasibility analysis hit its resource cap
	// (pointer-heavy paths can make the backward condition grow
	// exponentially); neither verdict is claimed and no predicates are
	// proposed, so SLAM answers Unknown.
	GaveUp bool
	// InfeasibleIndex is the backward-step count (from the end of the
	// path) at which the condition became unsatisfiable; -1 when the path
	// was feasible or the analysis gave up.
	InfeasibleIndex int
	// Events is the rendered C-level path (diagnostics).
	Events []string
}

// pathEvent is one C-level step after frame renaming.
type pathEvent struct {
	// Exactly one of assign/assume is set.
	isAssign bool
	lhs, rhs form.Term
	cond     form.Formula // for assume events
	text     string
}

// frameSep separates the frame qualifier from the variable name.
const frameSep = "::"

// Analyze decides the feasibility of a Bebop counterexample trace against
// the original (normalized) C program.
//
// tr, when non-nil, receives one newton.analyze span per refinement
// round, carrying the path length, the infeasibility point and the
// number of predicates harvested. A cancelled bt makes the backward
// sweep give up at the next step boundary: GaveUp is reported and no
// verdict is claimed, which is sound because SLAM maps GaveUp to
// Unknown. A nil bt never cancels.
func Analyze(res *cnorm.Result, aa *alias.Analysis, pv prover.Querier, steps []bebop.Step, tr *tracepkg.Tracer, bt *budget.Tracker) (*Result, error) {
	span := tr.Begin("newton", "analyze")
	out, err := analyze(res, aa, pv, steps, bt)
	if err != nil {
		span.End(tracepkg.Int("path_len", len(steps)))
		return nil, err
	}
	span.End(
		tracepkg.Int("path_len", len(steps)),
		tracepkg.Int("infeasible_index", out.InfeasibleIndex),
		tracepkg.Int("preds_harvested", predCount(out.NewPreds)),
		tracepkg.Bool("feasible", out.Feasible),
		tracepkg.Bool("gave_up", out.GaveUp),
	)
	return out, err
}

func analyze(res *cnorm.Result, aa *alias.Analysis, pv prover.Querier, trace []bebop.Step, bt *budget.Tracker) (*Result, error) {
	events, err := buildEvents(res, trace)
	if err != nil {
		return nil, err
	}

	oracle := &pathOracle{aa: aa}

	// Backward WP sweep with per-step satisfiability checks: the first
	// point (from the end) where the condition becomes unsatisfiable
	// pinpoints the contradiction.
	out := &Result{NewPreds: map[string][]string{}, InfeasibleIndex: -1}
	for _, e := range events {
		out.Events = append(out.Events, e.text)
	}

	// maxCondSize caps the rendered size of the path condition.
	const maxCondSize = 20000

	phi := form.Formula(form.TrueF{})
	// snapshots records the condition after each backward step, so that on
	// infeasibility predicates can be harvested from the entire infeasible
	// suffix — the correlation chain usually spans several statements and
	// frames (e.g. a return value flowing through a local into an assert).
	var snapshots []form.Formula
	for i := len(events) - 1; i >= 0; i-- {
		if bt.Cancelled() {
			// Deadline hit mid-sweep: neither verdict is claimed, so SLAM
			// answers Unknown — a sound retreat, never a wrong claim.
			bt.Degrade("newton", budget.LimitDeadline,
				fmt.Sprintf("gave up %d steps into the backward sweep", len(snapshots)))
			out.GaveUp = true
			out.Feasible = false
			return out, nil
		}
		e := events[i]
		if e.isAssign {
			phi = wp.Assignment(oracle, e.lhs, e.rhs, phi)
		} else {
			phi = form.MkAnd(e.cond, phi)
		}
		snapshots = append(snapshots, phi)
		if len(phi.String()) > maxCondSize {
			bt.Degrade("newton", budget.LimitCondSize,
				fmt.Sprintf("path condition exceeded %d chars after %d backward steps", maxCondSize, len(snapshots)))
			out.GaveUp = true
			out.Feasible = false
			return out, nil
		}
		if pv.Unsat(phi) {
			// Infeasible: harvest predicates from the conditions along the
			// contradictory suffix, nearest the contradiction first, up to
			// a budget (unbounded harvesting floods the next abstraction
			// round; SLAM's Newton similarly limits predicates).
			out.Feasible = false
			out.InfeasibleIndex = len(snapshots) - 1
			if !e.isAssign {
				harvest(res, e.cond, out.NewPreds)
			}
			for j := len(snapshots) - 1; j >= 0 && predCount(out.NewPreds) < maxHarvest; j-- {
				harvest(res, snapshots[j], out.NewPreds)
			}
			return out, nil
		}
	}
	if bt.Cancelled() {
		// A cancelled tracker short-circuits prover queries to "could not
		// prove", so a sweep that reached the start may have skipped the
		// very unsat check that would have refuted the path. Don't claim
		// feasibility off skipped queries.
		bt.Degrade("newton", budget.LimitDeadline, "sweep finished under cancellation; feasibility not claimed")
		out.GaveUp = true
		out.Feasible = false
		return out, nil
	}
	out.Feasible = true
	return out, nil
}

// buildEvents maps the boolean-program trace back to renamed C-level
// assignments and assumptions.
func buildEvents(res *cnorm.Result, trace []bebop.Step) ([]pathEvent, error) {
	var events []pathEvent
	type frame struct {
		fn string
		id int
		// callerLhs is the caller-side result location for the active
		// call, if any.
		callerLhs form.Term
	}
	frameN := 0
	newFrame := func(fn string) *frame {
		frameN++
		return &frame{fn: fn, id: frameN}
	}
	var stack []*frame
	top := func() *frame { return stack[len(stack)-1] }

	if len(trace) == 0 {
		return nil, fmt.Errorf("newton: empty trace")
	}
	stack = append(stack, newFrame(trace[0].Proc))

	for i, step := range trace {
		fr := top()
		if step.Proc != fr.fn {
			return nil, fmt.Errorf("newton: trace step %d in %s but frame is %s", i, step.Proc, fr.fn)
		}
		s := step.BP
		switch s.Kind {
		case bp.Assume:
			switch o := s.Origin.(type) {
			case abstract.BranchOrigin:
				cond, err := condOf(o.Stmt)
				if err != nil {
					return nil, err
				}
				if !o.Then {
					cond = form.NNF(form.MkNot(cond))
				}
				cond = renameFormula(res, fr.fn, fr.id, cond)
				events = append(events, pathEvent{
					cond: cond,
					text: fmt.Sprintf("[%s] assume %s", fr.fn, cond),
				})
			case cast.Stmt:
				if as, ok := o.(*cast.AssumeStmt); ok {
					cond, err := form.FromCond(as.X)
					if err != nil {
						return nil, err
					}
					cond = renameFormula(res, fr.fn, fr.id, cond)
					events = append(events, pathEvent{
						cond: cond,
						text: fmt.Sprintf("[%s] assume %s", fr.fn, cond),
					})
				}
			}
		case bp.Assign, bp.Skip:
			// A C assignment may abstract to a skip (no predicate is
			// affected); Newton must still execute it symbolically.
			o, ok := s.Origin.(cast.Stmt)
			if !ok {
				continue // post-call update or synthetic
			}
			as, ok := o.(*cast.AssignStmt)
			if !ok {
				continue
			}
			if _, isCall := as.Rhs.(*cast.Call); isCall {
				continue // handled at the bp.Call step
			}
			lhsT, err := form.FromExpr(as.Lhs)
			if err != nil {
				continue
			}
			rhsT, err := form.FromExpr(as.Rhs)
			if err != nil {
				continue
			}
			events = append(events, pathEvent{
				isAssign: true,
				lhs:      renameTerm(res, fr.fn, fr.id, lhsT),
				rhs:      renameTerm(res, fr.fn, fr.id, rhsT),
				text:     fmt.Sprintf("[%s] %s = %s", fr.fn, as.Lhs, as.Rhs),
			})
		case bp.Goto, bp.Assert:
			// Assert: the SLAM target is reached; the violated C condition
			// is handled by the caller of Analyze if needed (SLAM checks
			// reachability of abort points, whose condition is false).
			if s.Kind == bp.Assert {
				if o, ok := s.Origin.(cast.Stmt); ok {
					if asrt, ok := o.(*cast.AssertStmt); ok {
						cond, err := form.FromCond(asrt.X)
						if err == nil {
							neg := renameFormula(res, fr.fn, fr.id, form.NNF(form.MkNot(cond)))
							events = append(events, pathEvent{
								cond: neg,
								text: fmt.Sprintf("[%s] violate %s", fr.fn, asrt.X),
							})
						}
					}
				}
			}
		case bp.Call:
			// The next trace step enters the callee; bind formals.
			o, _ := s.Origin.(cast.Stmt)
			var callExpr *cast.Call
			var lhs cast.Expr
			switch o := o.(type) {
			case *cast.AssignStmt:
				callExpr, _ = o.Rhs.(*cast.Call)
				lhs = o.Lhs
			case *cast.ExprStmt:
				callExpr, _ = o.X.(*cast.Call)
			}
			if callExpr == nil {
				continue
			}
			callee := res.Prog.Func(callExpr.Name)
			if callee == nil {
				continue
			}
			nf := newFrame(callExpr.Name)
			if lhs != nil {
				if t, err := form.FromExpr(lhs); err == nil {
					nf.callerLhs = renameTerm(res, fr.fn, fr.id, t)
				}
			}
			// Parameter binding events (callee frame receives caller
			// values).
			for j, p := range callee.Params {
				if j >= len(callExpr.Args) {
					break
				}
				argT, err := form.FromExpr(callExpr.Args[j])
				if err != nil {
					continue
				}
				events = append(events, pathEvent{
					isAssign: true,
					lhs:      form.Var{Name: qualifyFn(nf.id, callExpr.Name, p.Name)},
					rhs:      renameTerm(res, fr.fn, fr.id, argT),
					text:     fmt.Sprintf("[%s] %s = %s (bind)", callExpr.Name, p.Name, callExpr.Args[j]),
				})
			}
			stack = append(stack, nf)
		case bp.Return:
			// Copy the return value into the caller's result location.
			if fr.callerLhs != nil {
				if rv, ok := res.RetVar[fr.fn]; ok {
					events = append(events, pathEvent{
						isAssign: true,
						lhs:      fr.callerLhs,
						rhs:      form.Var{Name: qualifyFn(fr.id, fr.fn, rv)},
						text:     fmt.Sprintf("[%s] return %s", fr.fn, rv),
					})
				}
			}
			if len(stack) > 1 {
				stack = stack[:len(stack)-1]
			}
		}
	}
	return events, nil
}

func condOf(s cast.Stmt) (form.Formula, error) {
	switch s := s.(type) {
	case *cast.IfStmt:
		return form.FromCond(s.Cond)
	case *cast.WhileStmt:
		return form.FromCond(s.Cond)
	}
	return nil, fmt.Errorf("newton: branch origin is %T", s)
}

// qualifyFn attaches a frame id and owning function to a local variable
// name: "f<id>@<fn>::name".
func qualifyFn(frameID int, fn, name string) string {
	return fmt.Sprintf("f%d@%s%s%s", frameID, fn, frameSep, name)
}

// splitQualified recovers the bare name; ok reports whether the variable
// was frame-qualified (i.e. a local).
func splitQualified(v string) (string, bool) {
	if i := strings.Index(v, frameSep); i >= 0 {
		return v[i+len(frameSep):], true
	}
	return v, false
}

// qualifierFn extracts the owning function from a qualified name.
func qualifierFn(v string) string {
	i := strings.Index(v, frameSep)
	if i < 0 {
		return ""
	}
	head := v[:i]
	if j := strings.Index(head, "@"); j >= 0 {
		return head[j+1:]
	}
	return ""
}

// renameTerm qualifies every local variable of fn with the frame id;
// globals stay bare.
func renameTerm(res *cnorm.Result, fn string, frameID int, t form.Term) form.Term {
	for _, v := range form.TermVars(t) {
		if _, isLocal := res.Info.FuncVars[fn][v]; isLocal {
			t = form.SubstTerm(t, form.Var{Name: v}, form.Var{Name: qualifyFn(frameID, fn, v)})
		}
	}
	return t
}

func renameFormula(res *cnorm.Result, fn string, frameID int, f form.Formula) form.Formula {
	for _, v := range form.FormulaVars(f) {
		if _, isLocal := res.Info.FuncVars[fn][v]; isLocal {
			f = form.Subst(f, form.Var{Name: v}, form.Var{Name: qualifyFn(frameID, fn, v)})
		}
	}
	return f
}

// stripTerm removes frame qualifiers for predicate harvesting and alias
// queries.
func stripName(v string) string {
	name, _ := splitQualified(v)
	return name
}

// maxHarvest bounds the predicates proposed per refinement round.
const maxHarvest = 12

func predCount(m map[string][]string) int {
	n := 0
	for _, v := range m {
		n += len(v)
	}
	return n
}

// constantDeref reports whether the atom reads through a constant address
// (e.g. 0->next, introduced by substituted NULLs) — useless as a predicate.
func constantDeref(f form.Formula) bool {
	for _, loc := range form.ReadLocations(f) {
		switch loc := loc.(type) {
		case form.Deref:
			if _, ok := loc.X.(form.Num); ok {
				return true
			}
		case form.Sel:
			if d, ok := loc.X.(form.Deref); ok {
				if _, ok := d.X.(form.Num); ok {
					return true
				}
			}
		}
	}
	return false
}

// harvest extracts candidate predicates from the contradiction formula:
// each atom whose variables come from a single frame (or only globals)
// becomes a predicate in that procedure's scope.
func harvest(res *cnorm.Result, phi form.Formula, out map[string][]string) {
	for _, atom := range form.Atoms(phi) {
		if constantDeref(atom) {
			continue
		}
		vars := form.FormulaVars(atom)
		scope := ""
		frame := ""
		mixed := false
		for _, v := range vars {
			if i := strings.Index(v, frameSep); i >= 0 {
				fr := v[:i]
				if frame == "" {
					frame = fr
				} else if frame != fr {
					mixed = true
				}
			}
		}
		if mixed {
			continue
		}
		// Identify the owning procedure by looking the bare locals up.
		bare := form.Formula(atom)
		for _, v := range vars {
			name := stripName(v)
			if name != v {
				bare = form.Subst(bare, form.Var{Name: v}, form.Var{Name: name})
			}
		}
		if frame == "" {
			scope = abstract.GlobalScope
		} else {
			// Find which function owns these locals.
			for _, f := range res.Prog.Funcs {
				owns := true
				for _, v := range vars {
					name := stripName(v)
					if name == v {
						continue // global
					}
					if _, ok := res.Info.FuncVars[f.Name][name]; !ok {
						owns = false
						break
					}
				}
				if owns && ownsAnyLocal(res, f.Name, vars) {
					scope = f.Name
					break
				}
			}
		}
		if scope == "" {
			continue
		}
		// Skip internal placeholder atoms.
		text := bare.String()
		if strings.Contains(text, "$") {
			continue
		}
		out[scope] = appendUnique(out[scope], text)
	}
}

func ownsAnyLocal(res *cnorm.Result, fn string, vars []string) bool {
	for _, v := range vars {
		name := stripName(v)
		if name == v {
			continue
		}
		if _, ok := res.Info.FuncVars[fn][name]; ok {
			return true
		}
	}
	return false
}

func appendUnique(list []string, s string) []string {
	for _, x := range list {
		if x == s {
			return list
		}
	}
	return append(list, s)
}

// pathOracle answers may-alias queries over frame-qualified terms by
// stripping qualifiers and delegating to the points-to analysis, with
// the syntactic never-alias refinements preserved.
type pathOracle struct {
	aa *alias.Analysis
}

// MayAlias is conservative across frames: distinct qualified variables
// never alias; a variable whose address is never taken (in its owning
// function) is never aliased by a dereference; same-frame (or global)
// queries delegate to the whole-program unification classes; queries that
// mix locals of different functions answer with the sound syntactic rules
// only.
func (o *pathOracle) MayAlias(x, y form.Term) bool {
	if vx, ok := x.(form.Var); ok {
		if vy, ok := y.(form.Var); ok {
			return vx.Name == vy.Name
		}
	}
	// Plain variable vs indirection: no alias unless its address is taken.
	if v, ok := x.(form.Var); ok {
		if fn := qualifierFn(v.Name); fn != "" && !o.aa.AddressTaken(fn, stripName(v.Name)) {
			return false
		}
	}
	if v, ok := y.(form.Var); ok {
		if fn := qualifierFn(v.Name); fn != "" && !o.aa.AddressTaken(fn, stripName(v.Name)) {
			return false
		}
	}
	// Different struct fields never alias.
	if sx, ok := x.(form.Sel); ok {
		if sy, ok := y.(form.Sel); ok && sx.Field != sy.Field {
			return false
		}
	}
	fnX, fnY := termFrameFn(x), termFrameFn(y)
	if fnX != "" && fnY != "" && fnX != fnY {
		return true // cross-frame heap access: stay conservative
	}
	fn := fnX
	if fn == "" {
		fn = fnY
	}
	sx := stripTermQualifiers(x)
	sy := stripTermQualifiers(y)
	return o.aa.MayAlias(fn, sx, sy)
}

// termFrameFn returns the owning function of the term's qualified locals,
// or "" if it mentions only globals.
func termFrameFn(t form.Term) string {
	for _, v := range form.TermVars(t) {
		if fn := qualifierFn(v); fn != "" {
			return fn
		}
	}
	return ""
}

func stripTermQualifiers(t form.Term) form.Term {
	for _, v := range form.TermVars(t) {
		name := stripName(v)
		if name != v {
			t = form.SubstTerm(t, form.Var{Name: v}, form.Var{Name: name})
		}
	}
	return t
}
