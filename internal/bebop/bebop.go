// Package bebop implements the Bebop model checker for boolean programs
// (paper Section 2.2): an interprocedural dataflow analysis in the spirit
// of Sharir-Pnueli and Reps-Horwitz-Sagiv, computing the set of reachable
// states for each statement. State sets and transfer functions are
// represented with binary decision diagrams; control flow stays an
// explicit graph. Procedure calls are handled with summaries, so
// recursion needs no special mechanism.
package bebop

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"time"

	"predabs/internal/bdd"
	"predabs/internal/bp"
	"predabs/internal/budget"
	"predabs/internal/trace"
)

// Column identifies one of the per-variable BDD variable copies.
type column int

const (
	colEntry   column = 0 // value at procedure entry (path-edge source)
	colCurrent column = 1 // value now
	colNext    column = 2 // value after the statement (primed)
	colScratch column = 3 // call-site summary input
	numColumns        = 4
)

// varSlot is one boolean-program variable's block of BDD variables.
type varSlot struct {
	name string
	base int // BDD variable index of colEntry
	pos  int // index in every procInfo.slots that holds the slot
}

func (s varSlot) col(c column) int { return s.base + int(c) }

// procInfo is one procedure's record: its variable layout, CFG and
// enforce invariant, and the fixpoint state the worklist grows for it.
// After layout the fixpoint tells variables apart by slot, never by
// name, so a local or parameter may shadow a global.
type procInfo struct {
	proc   *bp.Proc
	params []varSlot
	locals []varSlot
	rets   []varSlot // return-value slots
	// slots is the procedure's scope: globals, then params, then locals.
	// A concrete state of the procedure is a []bool in this order.
	slots []varSlot
	// scope maps names to slots (globals included).
	scope map[string]varSlot
	// succs[i] lists the successor statement indices of statement i.
	succs [][]int
	// enforce is the invariant BDD over colCurrent (1 if none).
	enfC int
	// entryRel mirrors the entry columns of the globals and params into
	// their current columns, and conjoins enforce: an entry state.
	entryRel int
	// callers lists the call sites of this procedure in program order:
	// the items to requeue when its summary grows.
	callers []workItem

	// The variable sets and renamings the transfer functions use, built
	// at layout. entryVars (entry columns of every slot) leave Reach.
	// As a caller: callQuant (those, plus the current params and
	// locals) leave a call's inputs. As a callee: seedRename moves the
	// inputs to the entry columns; sumQuant (current and scratch
	// globals, scratch params) is what applying the summary quantifies,
	// sumQuantRets adds the current return slots; retQuant (current
	// params and locals) and sumRename shape the path edges at a return
	// into the summary.
	entryVars, callQuant   []int
	sumQuant, sumQuantRets []int
	retQuant               []int
	seedRename, sumRename  map[int]int
	// targets[stmt] is what an assignment, or a call with return
	// targets, quantifies and renames.
	targets []targetVars

	// pathEdges[stmt] is the path-edge BDD over (entry, current).
	pathEdges []int
	// summary is over (entry globals and params in colScratch, next
	// globals, current rets).
	summary int
	// entrySeed accumulates the entry states seeded so far.
	entrySeed int
	// reach caches reachable at each statement once the fixpoint is
	// done; 0 (false) means not computed yet.
	reach []int
}

// targetVars holds what one assignment or call writes: quant is the
// current columns of the written slots (for a call, also the callee's
// current return columns), and toCur renames the written slots' next
// columns to current.
type targetVars struct {
	quant []int
	toCur map[int]int
}

// Failure locates a reachable assertion violation.
type Failure struct {
	Proc string
	Stmt int
}

// Checker runs reachability on one boolean program and answers queries
// about the computed fixpoint (paper Section 2.2: per-statement
// reachable-state sets, assertion reachability, counterexample traces).
//
// A Checker is not safe for concurrent use: both the fixpoint and the
// query methods (InvariantRows, HoldsAt, Trace, ...) mutate the shared
// BDD manager's node and memo tables. Run independent checks on
// independent Checkers.
type Checker struct {
	Prog  *bp.Program
	m     *bdd.Manager
	glob  []varSlot
	procs map[string]*procInfo
	// scratchNondet is a pool of BDD variables for * and choose. An
	// expression's nondeterminism uses a prefix of it.
	scratchNondet []int
	// match equates the scratch and current columns of every global: it
	// lines a summary's input globals up with a call site's.
	match int
	// globToCur renames every global's next column to its current one.
	globToCur map[int]int
	// quant is a reused buffer for a variable set plus nondeterminism.
	quant []int

	// Failures lists reachable assertion violations.
	Failures []Failure

	// Iterations counts worklist items processed until the RHS fixpoint
	// (the model checker's cost metric; the paper reports Bebop "ran in
	// under 10 seconds" on every subject).
	Iterations int
	// IterationsByProc splits Iterations by the procedure whose statement
	// was processed.
	IterationsByProc map[string]int
	// FixpointTime is the wall time of the reachability fixpoint,
	// excluding BDD layout and CFG construction.
	FixpointTime time.Duration

	// Degraded reports that the fixpoint stopped early on a resource
	// limit. The path edges computed so far are then an
	// UNDER-approximation of the reachable states: every Failure found is
	// a genuine abstract failure, but the absence of failures must not be
	// read as "verified" — callers map a degraded, failure-free check to
	// an Unknown outcome.
	Degraded bool
	// DegradeReason is the canonical limit name that stopped the fixpoint
	// (budget.LimitBDDNodes or budget.LimitDeadline); "" when not
	// degraded.
	DegradeReason string

	// tr receives one bebop.iter event per worklist item (worklist depth,
	// BDD node count) plus check/fixpoint spans. nil-safe.
	tr *trace.Tracer
}

// Check runs Bebop on prog starting from the entry procedure with
// unconstrained globals and parameters, computing the interprocedural
// reachability fixpoint with procedure summaries (paper Section 2.2).
// prog must be resolved.
func Check(prog *bp.Program, entry string) (*Checker, error) {
	return CheckTraced(prog, entry, nil)
}

// CheckTraced is Check with a structured-event tracer attached (nil
// behaves exactly like Check).
func CheckTraced(prog *bp.Program, entry string, tr *trace.Tracer) (*Checker, error) {
	return CheckLimited(prog, entry, tr, nil)
}

// CheckLimited is CheckTraced under the run's budget tracker: the
// fixpoint stops early when the run deadline passes or the BDD node
// table exceeds the tracker's BDDMaxNodes limit, leaving the Checker
// Degraded (see that field's soundness note). The paper reports Bebop's
// BDDs staying small in practice; the node ceiling is the safety net for
// the cases where they do not. A nil tracker is unlimited.
func CheckLimited(prog *bp.Program, entry string, tr *trace.Tracer, bt *budget.Tracker) (*Checker, error) {
	e := prog.Proc(entry)
	if e == nil {
		return nil, fmt.Errorf("bebop: no procedure %q", entry)
	}
	c := &Checker{
		Prog:             prog,
		m:                bdd.New(0),
		procs:            map[string]*procInfo{},
		IterationsByProc: map[string]int{},
		tr:               tr,
	}
	checkSpan := tr.Begin("bebop", "check")
	c.layout()
	c.buildCFGs()
	start := time.Now()
	fixSpan := tr.Begin("bebop", "fixpoint")
	c.run(entry, bt)
	fixSpan.End(trace.Int("iterations", c.Iterations))
	c.FixpointTime = time.Since(start)
	checkSpan.End(trace.Int("bdd_nodes", c.m.NumNodes()))
	return c, nil
}

// layout allocates BDD variables: four columns per variable slot;
// globals first, then per-procedure params, locals and return slots.
func (c *Checker) layout() {
	alloc := func(name string, pos int) varSlot {
		base := c.m.NumVars()
		for i := 0; i < numColumns; i++ {
			c.m.AddVar()
		}
		return varSlot{name: name, base: base, pos: pos}
	}
	for i, g := range c.Prog.Globals {
		c.glob = append(c.glob, alloc(g, i))
	}
	c.globToCur = renameMap(c.glob, colNext, colCurrent)
	globCur := colVars(c.glob, colCurrent)
	for _, pr := range c.Prog.Procs {
		pi := &procInfo{
			proc:      pr,
			scope:     map[string]varSlot{},
			pathEdges: make([]int, len(pr.Stmts)),
			reach:     make([]int, len(pr.Stmts)),
		}
		pi.slots = append(pi.slots, c.glob...)
		for _, p := range pr.Params {
			s := alloc(p, len(pi.slots))
			pi.params = append(pi.params, s)
			pi.slots = append(pi.slots, s)
		}
		for _, l := range pr.Locals {
			s := alloc(l, len(pi.slots))
			pi.locals = append(pi.locals, s)
			pi.slots = append(pi.slots, s)
		}
		for _, s := range pi.slots {
			pi.scope[s.name] = s
		}
		for i := 0; i < pr.NRet; i++ {
			pi.rets = append(pi.rets, alloc(fmt.Sprintf("%s::$ret%d", pr.Name, i), -1))
		}
		pi.entryVars = colVars(pi.slots, colEntry)
		pi.retQuant = append(colVars(pi.params, colCurrent), colVars(pi.locals, colCurrent)...)
		pi.callQuant = append(slices.Clone(pi.entryVars), pi.retQuant...)
		pi.seedRename = renameMap(c.glob, colCurrent, colEntry)
		maps.Copy(pi.seedRename, renameMap(pi.params, colScratch, colEntry))
		pi.sumQuant = slices.Concat(globCur, colVars(c.glob, colScratch), colVars(pi.params, colScratch))
		pi.sumQuantRets = append(slices.Clone(pi.sumQuant), colVars(pi.rets, colCurrent)...)
		pi.sumRename = renameMap(c.glob, colCurrent, colNext)
		maps.Copy(pi.sumRename, renameMap(c.glob, colEntry, colScratch))
		maps.Copy(pi.sumRename, renameMap(pi.params, colEntry, colScratch))
		c.procs[pr.Name] = pi
	}
	// Nondeterminism scratch pool (grown on demand).
	for i := 0; i < 8; i++ {
		c.scratchNondet = append(c.scratchNondet, c.m.AddVar())
	}
}

// buildCFGs fills in each record's successor lists, its callers (in
// program order) and its enforce BDDs.
func (c *Checker) buildCFGs() {
	for _, pr := range c.Prog.Procs {
		pi := c.procs[pr.Name]
		n := len(pr.Stmts)
		pi.succs = make([][]int, n)
		pi.targets = make([]targetVars, n)
		for i, s := range pr.Stmts {
			switch s.Kind {
			case bp.Assign:
				var lhs []varSlot
				for _, name := range s.Lhs {
					if slot, ok := pi.scope[name]; ok {
						lhs = append(lhs, slot)
					}
				}
				pi.targets[i] = newTargetVars(lhs, nil)
			case bp.Call:
				callee := c.procs[s.Callee]
				callee.callers = append(callee.callers, workItem{pi, i})
				if len(s.CallLhs) > 0 {
					lhs := make([]varSlot, len(s.CallLhs))
					for j, name := range s.CallLhs {
						lhs[j] = pi.scope[name]
					}
					pi.targets[i] = newTargetVars(lhs, callee.rets)
				}
			}
			switch s.Kind {
			case bp.Goto:
				for _, tgt := range s.Targets {
					idx, _ := pr.LabelIndex(tgt)
					pi.succs[i] = append(pi.succs[i], idx)
				}
			case bp.Return:
				// No successors.
			default:
				if i+1 < n {
					pi.succs[i] = append(pi.succs[i], i+1)
				}
			}
		}
		pi.enfC = 1
		if pr.Enforce != nil {
			pi.enfC = c.exprBDD(pi, pr.Enforce, colCurrent, nil)
		}
		pi.entryRel = c.m.And(pi.enfC, c.mirror(pi.slots[:len(c.glob)+len(pi.params)], colEntry))
	}
	c.match = c.mirror(c.glob, colScratch)
}

// mirror returns the BDD that equates each slot's column col with its
// current column. It conjoins from the last slot up, so each step puts
// one slot's equality on top of a BDD over later variables.
func (c *Checker) mirror(slots []varSlot, col column) int {
	r := c.m.True()
	for i := len(slots) - 1; i >= 0; i-- {
		s := slots[i]
		r = c.m.And(c.m.Iff(c.m.Var(s.col(col)), c.m.Var(s.col(colCurrent))), r)
	}
	return r
}

// newTargetVars builds the targetVars of writing the slots lhs, with
// rets the callee's return slots for a call.
func newTargetVars(lhs, rets []varSlot) targetVars {
	return targetVars{
		quant: append(colVars(lhs, colCurrent), colVars(rets, colCurrent)...),
		toCur: renameMap(lhs, colNext, colCurrent),
	}
}

// nondetVar hands out the next scratch variable for one * occurrence
// and counts it in *nondet.
func (c *Checker) nondetVar(nondet *int) int {
	if *nondet == len(c.scratchNondet) {
		c.scratchNondet = append(c.scratchNondet, c.m.AddVar())
	}
	*nondet++
	return c.scratchNondet[*nondet-1]
}

// exprBDD translates a boolean-program expression into a BDD over the
// given column. Unknown and unresolved choose consume scratch variables,
// counted in *nondet: the expression's are c.scratchNondet[:*nondet].
// nil means the expression must be deterministic.
func (c *Checker) exprBDD(pi *procInfo, e bp.Expr, col column, nondet *int) int {
	switch e := e.(type) {
	case bp.Const:
		if e.Val {
			return c.m.True()
		}
		return c.m.False()
	case bp.Ref:
		slot, ok := pi.scope[e.Name]
		if !ok {
			return c.m.False()
		}
		return c.m.Var(slot.col(col))
	case bp.Unknown:
		if nondet == nil {
			return c.m.True() // deterministic context: treat as true-assume
		}
		return c.m.Var(c.nondetVar(nondet))
	case bp.Not:
		return c.m.Not(c.exprBDD(pi, e.X, col, nondet))
	case bp.Bin:
		x := c.exprBDD(pi, e.X, col, nondet)
		y := c.exprBDD(pi, e.Y, col, nondet)
		switch e.Op {
		case bp.And:
			return c.m.And(x, y)
		case bp.Or:
			return c.m.Or(x, y)
		case bp.Implies:
			return c.m.Implies(x, y)
		case bp.Iff:
			return c.m.Iff(x, y)
		}
	case bp.Choose:
		pos := c.exprBDD(pi, e.Pos, col, nondet)
		neg := c.exprBDD(pi, e.Neg, col, nondet)
		if nondet == nil {
			return pos
		}
		// pos ? true : (neg ? false : ν)
		return c.m.Or(pos, c.m.And(c.m.Not(neg), c.m.Var(c.nondetVar(nondet))))
	}
	return c.m.False()
}

func colVars(slots []varSlot, col column) []int {
	out := make([]int, len(slots))
	for i, s := range slots {
		out[i] = s.col(col)
	}
	return out
}

func renameMap(slots []varSlot, from, to column) map[int]int {
	m := map[int]int{}
	for _, s := range slots {
		m[s.col(from)] = s.col(to)
	}
	return m
}

// withNondet returns vars followed by the first n scratch variables, in
// the reused buffer c.quant.
func (c *Checker) withNondet(vars []int, n int) []int {
	c.quant = append(append(c.quant[:0], vars...), c.scratchNondet[:n]...)
	return c.quant
}

// assignImage applies the parallel assignment at stmt to the path edges
// pe. Its relation constrains only the next columns of the assigned
// slots, each to its right-hand side; the image quantifies the assigned
// slots' current columns (and the nondeterminism), renames their next
// columns back and conjoins enforce on the result. An unassigned slot
// keeps its current column, so it needs no frame condition, and enforce
// on the post-state mentions no quantified column, so it may come last.
func (c *Checker) assignImage(pi *procInfo, stmt, pe int) int {
	s := pi.proc.Stmts[stmt]
	tv := &pi.targets[stmt]
	rel := c.m.True()
	nondet := 0
	for i, name := range s.Lhs {
		slot, ok := pi.scope[name]
		if !ok {
			continue
		}
		val := c.exprBDD(pi, s.Rhs[i], colCurrent, &nondet)
		rel = c.m.And(rel, c.m.Iff(c.m.Var(slot.col(colNext)), val))
	}
	post := c.m.AndExists(pe, rel, c.withNondet(tv.quant, nondet))
	return c.m.And(c.m.Replace(post, tv.toCur), pi.enfC)
}

// workItem is one statement of one procedure on the worklist.
type workItem struct {
	pi   *procInfo
	stmt int
}

// cancelPollStride is how many worklist items run between cancellation
// polls (BDD-node checks are O(1) and run every item).
const cancelPollStride = 32

// degrade marks the fixpoint as truncated and records the event.
func (c *Checker) degrade(bt *budget.Tracker, limit, detail string) {
	c.Degraded = true
	c.DegradeReason = limit
	bt.Degrade("bebop", limit, detail)
}

// run executes the RHS-style worklist to a fixpoint.
func (c *Checker) run(entry string, bt *budget.Tracker) {
	maxNodes := bt.Limits().BDDMaxNodes

	var queue []workItem
	inQueue := map[workItem]bool{}
	push := func(w workItem) {
		if !inQueue[w] {
			inQueue[w] = true
			queue = append(queue, w)
		}
	}

	// Seed the entry procedure: unconstrained globals and parameters.
	epi := c.procs[entry]
	c.seedEntry(epi, c.m.True(), push)

	for len(queue) > 0 {
		// Resource limits: stopping the worklist early leaves the path
		// edges an under-approximation (see Checker.Degraded).
		if maxNodes > 0 && c.m.NumNodes() > maxNodes {
			c.degrade(bt, budget.LimitBDDNodes,
				fmt.Sprintf("%d nodes after %d iterations", c.m.NumNodes(), c.Iterations))
			return
		}
		if c.Iterations%cancelPollStride == 0 && bt.Cancelled() {
			c.degrade(bt, budget.LimitDeadline,
				fmt.Sprintf("after %d iterations", c.Iterations))
			return
		}
		w := queue[0]
		queue = queue[1:]
		inQueue[w] = false
		pi := w.pi
		name := pi.proc.Name
		c.Iterations++
		c.IterationsByProc[name]++
		c.tr.Event("bebop", "iter", trace.Str("proc", name),
			trace.Int("worklist", len(queue)), trace.Int("bdd_nodes", c.m.NumNodes()))

		pe := pi.pathEdges[w.stmt]
		if pe == 0 {
			continue
		}
		s := pi.proc.Stmts[w.stmt]

		propagate := func(to int, newPE int) {
			old := pi.pathEdges[to]
			union := c.m.Or(old, newPE)
			if union != old {
				pi.pathEdges[to] = union
				push(workItem{pi, to})
			}
		}

		switch s.Kind {
		case bp.Skip, bp.Goto:
			for _, nxt := range pi.succs[w.stmt] {
				propagate(nxt, pe)
			}
		case bp.Assume:
			// A nondeterministic condition passes if some resolution does.
			nondet := 0
			cond := c.exprBDD(pi, s.Cond, colCurrent, &nondet)
			filtered := c.m.AndExists(pe, cond, c.scratchNondet[:nondet])
			for _, nxt := range pi.succs[w.stmt] {
				propagate(nxt, filtered)
			}
		case bp.Assert:
			// A nondeterministic assert fails if some resolution fails.
			nondet := 0
			cond := c.exprBDD(pi, s.Cond, colCurrent, &nondet)
			fail := c.m.AndExists(pe, c.m.Not(cond), c.scratchNondet[:nondet])
			if !c.m.IsFalse(fail) {
				c.recordFailure(name, w.stmt)
			}
			pass := c.m.AndExists(pe, cond, c.scratchNondet[:nondet])
			for _, nxt := range pi.succs[w.stmt] {
				propagate(nxt, pass)
			}
		case bp.Assign:
			out := c.assignImage(pi, w.stmt, pe)
			for _, nxt := range pi.succs[w.stmt] {
				propagate(nxt, out)
			}
		case bp.Call:
			if out := c.applyCall(pi, w.stmt, pe, push); !c.m.IsFalse(out) {
				for _, nxt := range pi.succs[w.stmt] {
					propagate(nxt, out)
				}
			}
		case bp.Return:
			if c.growSummary(pi, pe, s) {
				for _, cs := range pi.callers {
					push(cs)
				}
			}
		}
	}
}

// seedEntry adds the entry states of pi whose entry globals and params
// satisfy inputs: mirrored into the current columns (locals
// unconstrained), under enforce.
func (c *Checker) seedEntry(pi *procInfo, inputs int, push func(workItem)) {
	seed := c.m.And(inputs, pi.entryRel)
	union := c.m.Or(pi.entrySeed, seed)
	if union == pi.entrySeed {
		return
	}
	pi.entrySeed = union
	pe := pi.pathEdges[0]
	pe2 := c.m.Or(pe, seed)
	if pe2 != pe && len(pi.proc.Stmts) > 0 {
		pi.pathEdges[0] = pe2
		push(workItem{pi, 0})
	}
}

// applyCall binds arguments, seeds the callee, and applies the callee's
// summary to the path edges pe at the call stmt, producing the post-call
// path edges.
func (c *Checker) applyCall(pi *procInfo, stmt, pe int, push func(workItem)) int {
	s := pi.proc.Stmts[stmt]
	callee := c.procs[s.Callee]

	// Bind arguments into the callee's parameter SCRATCH columns. (Not the
	// entry columns: on a recursive self-call those are the caller's own
	// path-edge source and must stay unconstrained.)
	bind := c.m.True()
	nondet := 0
	for j, a := range s.Args {
		val := c.exprBDD(pi, a, colCurrent, &nondet)
		bind = c.m.And(bind, c.m.Iff(c.m.Var(callee.params[j].col(colScratch)), val))
	}
	combined := c.m.AndExists(pe, bind, c.scratchNondet[:nondet])

	// Seed the callee's entry: inputs are (current globals, bound params),
	// moved to the entry columns.
	inputs := c.m.Replace(c.m.Exists(combined, pi.callQuant), callee.seedRename)
	c.seedEntry(callee, inputs, push)

	// Apply the summary. Summary layout: input globals and input params in
	// colScratch, output globals in colNext, returns in callee ret
	// colCurrent. match lines the input globals up with the caller's
	// current ones; the old globals, the summary inputs and the bound
	// params then go, and the new globals move to colCurrent.
	if c.m.IsFalse(callee.summary) {
		return c.m.False()
	}
	in := c.m.And(combined, c.match)
	if len(s.CallLhs) == 0 {
		out := c.m.AndExists(in, callee.summary, callee.sumQuantRets)
		return c.m.And(c.m.Replace(out, c.globToCur), pi.enfC)
	}
	out := c.m.Replace(c.m.AndExists(in, callee.summary, callee.sumQuant), c.globToCur)
	// Copy return values into the call targets.
	copyRel := c.m.True()
	for i, name := range s.CallLhs {
		copyRel = c.m.And(copyRel, c.m.Iff(c.m.Var(pi.scope[name].col(colNext)), c.m.Var(callee.rets[i].col(colCurrent))))
	}
	tv := &pi.targets[stmt]
	out = c.m.Replace(c.m.AndExists(out, copyRel, tv.quant), tv.toCur)
	return c.m.And(out, pi.enfC)
}

// growSummary folds the path edges pe at a reached return statement into
// the procedure's summary relation: the return values attached, the
// current params and locals dropped, the current globals moved to the
// next columns and the entry globals and params to the scratch ones, so
// call sites can match them without touching their own entry columns.
// Reports whether the summary grew.
func (c *Checker) growSummary(pi *procInfo, pe int, s *bp.Stmt) bool {
	rets := c.m.True()
	nondet := 0
	for i, e := range s.RetVals {
		val := c.exprBDD(pi, e, colCurrent, &nondet)
		rets = c.m.And(rets, c.m.Iff(c.m.Var(pi.rets[i].col(colCurrent)), val))
	}
	rel := c.m.AndExists(pe, rets, c.withNondet(pi.retQuant, nondet))
	rel = c.m.Replace(rel, pi.sumRename)
	union := c.m.Or(pi.summary, rel)
	if union == pi.summary {
		return false
	}
	pi.summary = union
	return true
}

func (c *Checker) recordFailure(proc string, stmt int) {
	for _, f := range c.Failures {
		if f.Proc == proc && f.Stmt == stmt {
			return
		}
	}
	c.Failures = append(c.Failures, Failure{Proc: proc, Stmt: stmt})
}

// ErrorReachable reports the first reachable assertion violation.
func (c *Checker) ErrorReachable() (Failure, bool) {
	if len(c.Failures) == 0 {
		return Failure{}, false
	}
	return c.Failures[0], true
}

// reachable returns the reachable current-state set at (pi, stmt) as a
// BDD over the current columns (entry columns quantified away), computed
// once per statement.
func (c *Checker) reachable(pi *procInfo, stmt int) int {
	if pi.reach[stmt] == 0 && pi.pathEdges[stmt] != 0 {
		pi.reach[stmt] = c.m.Exists(pi.pathEdges[stmt], pi.entryVars)
	}
	return pi.reach[stmt]
}

// StmtAtLabel resolves a label to its statement index.
func (c *Checker) StmtAtLabel(proc, label string) (int, bool) {
	pi, ok := c.procs[proc]
	if !ok {
		return 0, false
	}
	return pi.proc.LabelIndex(label)
}

// InvariantRows enumerates the reachable states at (proc, stmt) as
// valuations of the variables in scope there (globals, params, locals),
// one column per name: a global that a local or parameter shadows is
// projected out, so each column names the variable in scope, as
// Step.State does.
func (c *Checker) InvariantRows(proc string, stmt int) ([]string, [][]byte) {
	pi := c.procs[proc]
	var names []string
	var cols []int
	for _, s := range pi.slots {
		if pi.scope[s.name] == s {
			names = append(names, s.name)
			cols = append(cols, s.col(colCurrent))
		}
	}
	return names, c.m.AllSat(c.reachable(pi, stmt), cols)
}

// InvariantString renders the invariant at (proc, stmt) as a disjunction
// of cubes over variable names (diagnostics and tests).
func (c *Checker) InvariantString(proc string, stmt int) string {
	names, rows := c.InvariantRows(proc, stmt)
	if len(rows) == 0 {
		return "false"
	}
	var parts []string
	for _, row := range rows {
		var lits []string
		for i, b := range row {
			name := bp.Ref{Name: names[i]}.String()
			if b == 1 {
				lits = append(lits, name)
			} else {
				lits = append(lits, "!"+name)
			}
		}
		parts = append(parts, strings.Join(lits, " & "))
	}
	sort.Strings(parts)
	return strings.Join(parts, "  |  ")
}

// StateReachable reports whether a (possibly partial) concrete state is
// compatible with the reachable set at (proc, stmt): variables present in
// the map are fixed, others existentially quantified. A name fixes the
// variable in scope, so a global a local shadows stays free. Used by the
// abstraction-soundness property tests.
func (c *Checker) StateReachable(proc string, stmt int, state map[string]bool) bool {
	pi, ok := c.procs[proc]
	if !ok || stmt >= len(pi.proc.Stmts) {
		return false
	}
	f := c.reachable(pi, stmt)
	for _, s := range pi.slots {
		v, ok := state[s.name]
		if !ok || pi.scope[s.name] != s {
			continue
		}
		f = c.m.Restrict(f, s.col(colCurrent), v)
		if c.m.IsFalse(f) {
			return false
		}
	}
	return !c.m.IsFalse(f)
}

// StmtsWithOrigin returns the statement indices in proc whose Origin is
// the given value (pointer identity), in program order.
func (c *Checker) StmtsWithOrigin(proc string, origin any) []int {
	pi, ok := c.procs[proc]
	if !ok {
		return nil
	}
	var out []int
	for i, s := range pi.proc.Stmts {
		if s.Origin == origin {
			out = append(out, i)
		} else if bo, ok := s.Origin.(interface{ OriginStmt() any }); ok && bo.OriginStmt() == origin {
			out = append(out, i)
		}
	}
	return out
}

// HoldsAt reports whether the boolean expression over in-scope variables
// holds in every reachable state at (proc, stmt).
func (c *Checker) HoldsAt(proc string, stmt int, e bp.Expr) bool {
	pi := c.procs[proc]
	cond := c.exprBDD(pi, e, colCurrent, nil)
	return c.m.IsFalse(c.m.And(c.reachable(pi, stmt), c.m.Not(cond)))
}

// LabelledInvariants renders the reachable-state invariant at every
// labelled statement of every procedure, one "proc:label: cubes" line per
// label, in program order (internal labels generated by the abstraction
// are skipped).
func (c *Checker) LabelledInvariants() []string {
	var out []string
	for _, pr := range c.Prog.Procs {
		for i, s := range pr.Stmts {
			for _, l := range s.Labels {
				if len(l) > 0 && (l[0] == '$' || l[0] == '_') {
					continue // generated label
				}
				out = append(out, pr.Name+":"+l+": "+c.InvariantString(pr.Name, i))
			}
		}
	}
	return out
}
