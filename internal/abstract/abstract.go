// Package abstract implements C2bp, the paper's predicate-abstraction
// tool: given a MiniC program P and a set E of predicates, it constructs
// the boolean program BP(P,E) with identical control structure, one
// boolean variable per predicate, and conservative boolean transfer
// functions computed with weakest preconditions, alias-pruned Morris case
// splits, and theorem-prover-backed cube search (Sections 4 and 5).
package abstract

import (
	"fmt"
	"strings"
	"time"

	"predabs/internal/alias"
	"predabs/internal/bp"
	"predabs/internal/budget"
	"predabs/internal/cast"
	"predabs/internal/cnorm"
	"predabs/internal/cparse"
	"predabs/internal/form"
	"predabs/internal/prover"
	"predabs/internal/trace"
	"predabs/internal/wp"
)

// Options are the precision/efficiency knobs from Section 5.2, plus the
// parallelism knob for the prover-backed cube search.
type Options struct {
	// MaxCubeLen bounds cube length in the F computation (paper: k=3
	// "provides the needed precision in most cases"). <= 0 means
	// unlimited.
	MaxCubeLen int
	// ConeOfInfluence restricts cube domains syntactically (opt. 3).
	ConeOfInfluence bool
	// SyntacticHeuristics matches predicates textually before calling the
	// prover (opt. 4).
	SyntacticHeuristics bool
	// SkipUnchanged leaves variables whose WP is unchanged alone (opt. 2).
	SkipUnchanged bool
	// FOnAtoms distributes F through ∧/∨ (precision tradeoff).
	FOnAtoms bool
	// EmitEnforce computes per-procedure enforce invariants (Section 5.1).
	EmitEnforce bool
	// Jobs bounds the worker pool for the parallel cube search (the
	// paper's dominant cost, Section 4.1). <= 0 means GOMAXPROCS; 1
	// restores the strictly sequential scan. The boolean-program output
	// is byte-identical for every value.
	Jobs int
	// Tracer receives structured events (per-procedure spans, cube-search
	// rounds, worker lanes). nil disables tracing at zero cost. A pointer
	// keeps Options comparable.
	Tracer *trace.Tracer
	// Budget, when non-nil, carries the run deadline/cancellation, the
	// limits and the degradation log (internal/budget). Its CubeBudget
	// limit caps the cube candidates submitted to the prover per
	// procedure. Once spent, the procedure's remaining transfer functions
	// degrade soundly: F_V answers false, so assignments become the
	// trivially sound choose(*,*) havoc and assumes become assume(true).
	// The budget is consumed by truncating candidate lists in canonical
	// enumeration order, so the (weaker) output stays byte-identical for
	// every Jobs value. A cancelled run degrades every remaining procedure
	// the same sound way. A pointer keeps Options comparable.
	Budget *budget.Tracker
	// Engine selects the prover-backed F_V search: EngineCubes (or "")
	// enumerates candidate cubes with one Valid query each (the paper's
	// Section 4.1 loop); EngineModels enumerates prover models of the WP
	// query and classifies the same candidate cubes by membership, which
	// needs far fewer prover interactions on predicate-rich procedures.
	// Both engines emit byte-identical boolean programs on non-degraded
	// runs. EngineModels opens its sessions on the Prover behind the
	// Querier (prover.Backing), where faults are injected as on the cube
	// engine's queries.
	Engine string
}

// Engine names for Options.Engine (the -abs-engine CLI flag).
const (
	// EngineCubes is the paper's per-cube Valid query search (default).
	EngineCubes = "cubes"
	// EngineModels is the incremental model-enumeration search.
	EngineModels = "models"
)

// ValidEngine reports whether s names a known abstraction engine
// ("" means the default, EngineCubes).
func ValidEngine(s string) bool {
	return s == "" || s == EngineCubes || s == EngineModels
}

// DefaultOptions returns the configuration used in the paper's
// experiments.
func DefaultOptions() Options {
	return Options{
		MaxCubeLen:          3,
		ConeOfInfluence:     true,
		SyntacticHeuristics: true,
		SkipUnchanged:       true,
		EmitEnforce:         true,
	}
}

// Stats accumulates abstraction metrics (the paper's Tables 1 and 2
// columns come from here plus prover.Prover.Calls) and per-stage wall
// times for the -stats observability surface of cmd/c2bp and cmd/slam.
type Stats struct {
	CubeStats
	// Assignments, Calls and Conditionals count translated C statements.
	Assignments  int
	Calls        int
	Conditionals int

	// SignatureTime is the wall time of the first pass computing every
	// procedure's (E_f, E_r) signature (Section 4.5.2).
	SignatureTime time.Duration
	// ProcTimes records the wall time spent abstracting each procedure,
	// in program order.
	ProcTimes []ProcTime
	// ProcCubes records per-procedure cube-search activity (rounds and
	// candidate cubes), in program order.
	ProcCubes []ProcCubeStat

	// DegradedProcs names the procedures whose abstraction hit the cube
	// budget or the run deadline (their remaining transfer functions are
	// the trivially sound fallback), in program order.
	DegradedProcs []string
}

// CubeStats are the cube search's counters, which slam sums over its
// CEGAR iterations and both -stats outputs print (obs.WriteCubeStats).
type CubeStats struct {
	// CubesChecked counts cube implication candidates submitted to the
	// prover-backed search (after superset pruning).
	CubesChecked int
	// CubesSkipped counts enforce candidates that survived superset
	// pruning but were never submitted: their predicates split into
	// groups the prover cannot relate, so they are satisfiable.
	CubesSkipped int
	// CubeRounds counts prover-backed search rounds (one per cube size
	// that produced candidates, across every F_V/G_V/enforce invocation).
	CubeRounds int
	// FVReused and EnforceReused count the F_V results and enforce
	// invariants served from a scope record instead of searched: an
	// earlier procedure asked the same question of the same predicate
	// list. Their cubes count against the procedure's cube budget but not
	// in CubesChecked or CubeRounds.
	FVReused      int
	EnforceReused int
	// CubeSearchTime is the cumulative wall time of the prover-backed
	// cube search (F_V/G_V rounds plus enforce invariants) — the cost the
	// paper's optimizations 1-5 attack.
	CubeSearchTime time.Duration
}

// Add adds o's counters to s.
func (s *CubeStats) Add(o CubeStats) {
	s.CubesChecked += o.CubesChecked
	s.CubesSkipped += o.CubesSkipped
	s.CubeRounds += o.CubeRounds
	s.FVReused += o.FVReused
	s.EnforceReused += o.EnforceReused
	s.CubeSearchTime += o.CubeSearchTime
}

// ProcTime is the abstraction wall time of one procedure.
type ProcTime struct {
	Name string
	D    time.Duration
}

// ProcCubeStat is the cube-search activity of one procedure's
// abstraction.
type ProcCubeStat struct {
	Name   string
	Rounds int
	Cubes  int
}

// Signature is the paper's four-tuple (F_R, r, E_f, E_r) restricted to
// the predicate parts (formals and return variable live in the normalized
// program).
type Signature struct {
	// Ef are the formal-parameter predicates, in predicate-file order;
	// they become the boolean procedure's parameters.
	Ef []Pred
	// Er are the return predicates; the boolean procedure returns one
	// boolean per entry.
	Er []Pred
}

// Result is the output of Abstract.
type Result struct {
	BP    *bp.Program
	Stats Stats
	// GlobalPreds and LocalPreds echo the parsed predicate scoping.
	GlobalPreds []Pred
	LocalPreds  map[string][]Pred
}

// Abstractor holds the state of one abstraction run. It is not safe for
// concurrent use — the cube search spawns its own worker goroutines
// internally (Options.Jobs), and they share only the concurrency-safe
// Prover; all Abstractor state is mutated by the single coordinating
// goroutine.
type Abstractor struct {
	res  *cnorm.Result
	aa   *alias.Analysis
	pv   prover.Querier
	opts Options

	// Per-procedure degradation state (reset by beginProc). cubesUsed
	// counts upward against the budget's CubeBudget limit so that a
	// zero-value Abstractor (unit tests drive fv directly) is unlimited.
	cubesUsed    int
	procDegraded bool
	degradeLimit string

	globalPreds []Pred
	localPreds  map[string][]Pred
	sigs        map[string]*Signature
	// modifiedFormals[fn] holds formals (re)assigned inside fn, which are
	// excluded from return predicates (footnote 4).
	modifiedFormals map[string]map[string]bool

	// scopes holds one record per distinct ordered predicate list, keyed
	// by the predicates' names and canonical strings (see scope). It
	// lives for one Abstract call.
	scopes map[string]*scope
	// maskBuf is cone's scratch inclusion bitmask.
	maskBuf []byte
	// cubeBuf, cands and verdicts are one round's scratch: the
	// candidates end to end, each candidate's slice of cubeBuf, and
	// their verdicts.
	cubeBuf  []literal
	cands    [][]literal
	verdicts []cubeVerdict

	Stats Stats
}

// GlobalScope is the section name for global predicates in predicate
// input files.
const GlobalScope = "global"

// Abstract runs C2bp. The predicate sections use procedure names or
// "global" as scope names. pv is a *prover.Prover or a type embedding
// one; faults injected through Prover.Fault (internal/faultinject) only
// weaken the abstraction, which stays sound.
func Abstract(res *cnorm.Result, aa *alias.Analysis, pv prover.Querier,
	sections []cparse.PredSection, opts Options) (*Result, error) {

	ab := &Abstractor{
		res:             res,
		aa:              aa,
		pv:              pv,
		opts:            opts,
		localPreds:      map[string][]Pred{},
		sigs:            map[string]*Signature{},
		modifiedFormals: map[string]map[string]bool{},
	}
	tracer := opts.Tracer
	runSpan := tracer.Begin("abstract", "run")
	defer runSpan.End()
	if err := ab.loadPredicates(sections); err != nil {
		return nil, err
	}
	nPreds := len(ab.globalPreds)
	for _, ps := range ab.localPreds {
		nPreds += len(ps)
	}
	tracer.Event("abstract", "predicates", trace.Int("count", nPreds))
	ab.computeModifiedFormals()
	// First pass: signatures (each procedure in isolation, Section 4.5.2).
	sigStart := time.Now()
	sigSpan := tracer.Begin("abstract", "signatures")
	for _, f := range res.Prog.Funcs {
		ab.sigs[f.Name] = ab.signature(f)
	}
	sigSpan.End()
	ab.Stats.SignatureTime = time.Since(sigStart)
	// Second pass: abstract each procedure.
	prog := &bp.Program{}
	for _, p := range ab.globalPreds {
		prog.Globals = append(prog.Globals, p.Name)
	}
	for _, f := range res.Prog.Funcs {
		procStart := time.Now()
		procSpan := tracer.Begin("abstract", "proc")
		s0 := ab.Stats
		pr, err := ab.abstractProc(f)
		if err != nil {
			return nil, err
		}
		rounds, cubes := ab.Stats.CubeRounds-s0.CubeRounds, ab.Stats.CubesChecked-s0.CubesChecked
		procSpan.End(trace.Str("proc", f.Name),
			trace.Int("rounds", rounds), trace.Int("cubes", cubes),
			trace.Int("reused", ab.Stats.FVReused-s0.FVReused),
			trace.Int("enforce_reused", ab.Stats.EnforceReused-s0.EnforceReused))
		ab.Stats.ProcCubes = append(ab.Stats.ProcCubes,
			ProcCubeStat{Name: f.Name, Rounds: rounds, Cubes: cubes})
		ab.Stats.ProcTimes = append(ab.Stats.ProcTimes,
			ProcTime{Name: f.Name, D: time.Since(procStart)})
		prog.Procs = append(prog.Procs, pr)
	}
	if err := prog.Resolve(); err != nil {
		return nil, fmt.Errorf("abstract: generated boolean program invalid: %w", err)
	}
	return &Result{
		BP:          prog,
		Stats:       ab.Stats,
		GlobalPreds: ab.globalPreds,
		LocalPreds:  ab.localPreds,
	}, nil
}

func (ab *Abstractor) loadPredicates(sections []cparse.PredSection) error {
	seen := map[string]map[string]bool{}
	for _, sec := range sections {
		if sec.Name != GlobalScope && ab.res.Prog.Func(sec.Name) == nil {
			return fmt.Errorf("abstract: predicate section for unknown procedure %q", sec.Name)
		}
		if seen[sec.Name] == nil {
			seen[sec.Name] = map[string]bool{}
		}
		for i, e := range sec.Exprs {
			f, err := form.FromCond(e)
			if err != nil {
				return fmt.Errorf("abstract: %s: bad predicate %q: %v", sec.Name, sec.Texts[i], err)
			}
			name := sec.Texts[i]
			if seen[sec.Name][name] {
				return fmt.Errorf("abstract: %s: duplicate predicate %q", sec.Name, name)
			}
			seen[sec.Name][name] = true
			p := NewPred(name, f)
			if sec.Name == GlobalScope {
				for _, v := range form.FormulaVars(f) {
					if _, isG := ab.res.Info.GlobalVars[v]; !isG {
						return fmt.Errorf("abstract: global predicate %q mentions non-global %q", name, v)
					}
				}
				ab.globalPreds = append(ab.globalPreds, p)
			} else {
				ab.localPreds[sec.Name] = append(ab.localPreds[sec.Name], p)
			}
		}
	}
	return nil
}

// computeModifiedFormals finds formal parameters whose value may change
// during the procedure (direct assignment or address taken).
func (ab *Abstractor) computeModifiedFormals() {
	for _, f := range ab.res.Prog.Funcs {
		mod := map[string]bool{}
		for _, p := range f.Params {
			if ab.aa.AddressTaken(f.Name, p.Name) {
				mod[p.Name] = true
			}
		}
		var walk func(s cast.Stmt)
		walk = func(s cast.Stmt) {
			switch s := s.(type) {
			case *cast.Block:
				for _, sub := range s.Stmts {
					walk(sub)
				}
			case *cast.AssignStmt:
				if v, ok := s.Lhs.(*cast.VarRef); ok {
					for _, p := range f.Params {
						if p.Name == v.Name {
							mod[v.Name] = true
						}
					}
				}
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
		ab.modifiedFormals[f.Name] = mod
	}
}

// signature computes (E_f, E_r) for a procedure per Section 4.5.2.
func (ab *Abstractor) signature(f *cast.FuncDef) *Signature {
	sig := &Signature{}
	preds := ab.localPreds[f.Name]
	formals := map[string]bool{}
	for _, p := range f.Params {
		formals[p.Name] = true
	}
	locals := map[string]bool{}
	for v := range ab.res.Info.FuncVars[f.Name] {
		if !formals[v] {
			locals[v] = true
		}
	}
	retVar := ab.res.RetVar[f.Name]
	mod := ab.modifiedFormals[f.Name]

	isGlobalVar := func(v string) bool {
		_, ok := ab.res.Info.GlobalVars[v]
		return ok && !formals[v] && !locals[v]
	}

	for _, p := range preds {
		vars := form.FormulaVars(p.F)
		mentionsLocal := false
		for _, v := range vars {
			if locals[v] {
				mentionsLocal = true
			}
		}
		if !mentionsLocal {
			sig.Ef = append(sig.Ef, p)
		}
	}

	inEf := map[string]bool{}
	for _, p := range sig.Ef {
		inEf[p.Name] = true
	}

	for _, p := range preds {
		vars := form.FormulaVars(p.F)
		// Footnote 4: drop predicates mentioning modified formals.
		usesModified := false
		for _, v := range vars {
			if mod[v] {
				usesModified = true
			}
		}
		if usesModified {
			continue
		}
		// Clause 1: mentions r and no other locals.
		if retVar != "" {
			mentionsRet := false
			otherLocal := false
			for _, v := range vars {
				if v == retVar {
					mentionsRet = true
				} else if locals[v] {
					otherLocal = true
				}
			}
			if mentionsRet && !otherLocal {
				sig.Er = append(sig.Er, p)
				continue
			}
		}
		// Clause 2: in E_f and references a global or dereferences a
		// formal.
		if inEf[p.Name] {
			hasGlobal := false
			for _, v := range vars {
				if isGlobalVar(v) {
					hasGlobal = true
				}
			}
			derefsFormal := false
			for _, v := range derefedVars(p.F) {
				if formals[v] {
					derefsFormal = true
				}
			}
			if hasGlobal || derefsFormal {
				sig.Er = append(sig.Er, p)
			}
		}
	}
	return sig
}

// derefedVars returns the variables dereferenced in the formula (pointer
// bases of *, ->, []).
func derefedVars(f form.Formula) []string {
	set := map[string]bool{}
	for _, loc := range form.ReadLocations(f) {
		switch loc := loc.(type) {
		case form.Deref:
			if v, ok := loc.X.(form.Var); ok {
				set[v.Name] = true
			}
		case form.Sel:
			if d, ok := loc.X.(form.Deref); ok {
				if v, ok := d.X.(form.Var); ok {
					set[v.Name] = true
				}
			}
		case form.Idx:
			if v, ok := loc.X.(form.Var); ok {
				set[v.Name] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	return out
}

// BranchOrigin tags the assume statements generated for conditionals so
// Newton can recover which branch a counterexample took.
type BranchOrigin struct {
	Stmt cast.Stmt
	Then bool
}

// OriginStmt exposes the underlying C statement uniformly (used by
// origin-based statement lookups in the model checker).
func (b BranchOrigin) OriginStmt() any { return b.Stmt }

// fnOracle adapts the whole-program alias analysis to wp's per-function
// oracle interface.
type fnOracle struct {
	aa *alias.Analysis
	fn string
}

func (o fnOracle) MayAlias(x, y form.Term) bool { return o.aa.MayAlias(o.fn, x, y) }

// translator holds per-procedure translation state.
type translator struct {
	ab     *Abstractor
	f      *cast.FuncDef
	sig    *Signature
	scope  *scope // globals + locals of f (cube-search domain)
	oracle fnOracle

	stmts         []*bp.Stmt
	pendingLabels []string
	extraLocals   []string
	tempN         int
	labelN        int
}

// beginProc resets the per-procedure degradation state: each procedure
// gets a fresh cube budget, so one pathological procedure cannot starve
// the rest of the program of precision.
func (ab *Abstractor) beginProc() {
	ab.procDegraded = false
	ab.degradeLimit = ""
	ab.cubesUsed = 0
}

// degraded reports whether the current procedure's prover-backed search
// has degraded, folding in a run cancellation first. Called only from
// the coordinating goroutine (never from cube workers).
func (ab *Abstractor) degraded() bool {
	if !ab.procDegraded && ab.opts.Budget.Cancelled() {
		ab.markDegraded(budget.LimitDeadline)
	}
	return ab.procDegraded
}

func (ab *Abstractor) markDegraded(limit string) {
	if !ab.procDegraded {
		ab.procDegraded = true
		ab.degradeLimit = limit
	}
}

// takeCubes spends the procedure's cube budget on a canonical candidate
// list, truncating it (in enumeration order, so partial output is
// byte-identical for every worker count) and marking the procedure
// degraded when the budget runs dry.
func (ab *Abstractor) takeCubes(cands [][]literal) [][]literal {
	limit := ab.opts.Budget.Limits().CubeBudget
	if limit <= 0 {
		return cands
	}
	left := limit - ab.cubesUsed
	if len(cands) <= left {
		ab.cubesUsed += len(cands)
		return cands
	}
	if left < 0 {
		left = 0
	}
	cands = cands[:left]
	ab.cubesUsed = limit
	ab.markDegraded(budget.LimitCubeBudget)
	return cands
}

func (ab *Abstractor) abstractProc(f *cast.FuncDef) (*bp.Proc, error) {
	sig := ab.sigs[f.Name]
	ab.beginProc()
	defer func() {
		if ab.procDegraded {
			ab.Stats.DegradedProcs = append(ab.Stats.DegradedProcs, f.Name)
			ab.opts.Budget.Degrade("abstract", ab.degradeLimit, "proc "+f.Name)
		}
	}()
	tr := &translator{
		ab:     ab,
		f:      f,
		sig:    sig,
		oracle: fnOracle{aa: ab.aa, fn: f.Name},
	}
	preds := ab.globalPreds
	if locals := ab.localPreds[f.Name]; len(locals) > 0 {
		preds = append(preds[:len(preds):len(preds)], locals...)
	}
	tr.scope = ab.scopeOf(preds)

	tr.block(f.Body)
	// Final return (paper form: procedures end with return of E_r).
	tr.emitReturn()

	pr := &bp.Proc{Name: f.Name, NRet: len(sig.Er)}
	inEf := map[string]bool{}
	for _, p := range sig.Ef {
		pr.Params = append(pr.Params, p.Name)
		inEf[p.Name] = true
	}
	for _, p := range ab.localPreds[f.Name] {
		if !inEf[p.Name] {
			pr.Locals = append(pr.Locals, p.Name)
		}
	}
	pr.Locals = append(pr.Locals, tr.extraLocals...)
	if ab.opts.EmitEnforce {
		pr.Enforce = ab.enforceExpr(tr.scope)
	}
	pr.Stmts = tr.stmts
	return pr, nil
}

func (tr *translator) emit(s *bp.Stmt) {
	s.Labels = append(tr.pendingLabels, s.Labels...)
	tr.pendingLabels = nil
	tr.stmts = append(tr.stmts, s)
}

func (tr *translator) freshTemp() string {
	tr.tempN++
	name := fmt.Sprintf("t$%d", tr.tempN)
	tr.extraLocals = append(tr.extraLocals, name)
	return name
}

func (tr *translator) freshLabel() string {
	tr.labelN++
	return fmt.Sprintf("$A%d", tr.labelN)
}

// emitReturn emits the procedure's return of its E_r predicate values.
// Duplicate trailing returns are harmless (unreachable).
func (tr *translator) emitReturn() {
	if len(tr.stmts) > 0 && len(tr.pendingLabels) == 0 &&
		tr.stmts[len(tr.stmts)-1].Kind == bp.Return {
		return
	}
	tr.emit(tr.returnStmt(nil))
}

func (tr *translator) returnStmt(origin cast.Stmt) *bp.Stmt {
	vals := make([]bp.Expr, len(tr.sig.Er))
	for i, p := range tr.sig.Er {
		vals[i] = bp.Ref{Name: p.Name}
	}
	s := &bp.Stmt{Kind: bp.Return, RetVals: vals}
	if origin != nil {
		s.Origin = origin
	}
	return s
}

func (tr *translator) block(b *cast.Block) {
	for _, s := range b.Stmts {
		tr.stmt(s)
	}
}

func (tr *translator) stmt(s cast.Stmt) {
	switch s := s.(type) {
	case *cast.Block:
		tr.block(s)
	case *cast.DeclStmt:
		// Declarations carry no transfer function.
	case *cast.EmptyStmt:
		if len(tr.pendingLabels) > 0 {
			tr.emit(&bp.Stmt{Kind: bp.Skip, Origin: s})
		}
	case *cast.LabeledStmt:
		tr.pendingLabels = append(tr.pendingLabels, s.Label)
		tr.stmt(s.Stmt)
		if len(tr.pendingLabels) > 0 {
			// Label on an empty tail: pin it to a skip.
			tr.emit(&bp.Stmt{Kind: bp.Skip, Origin: s})
		}
	case *cast.GotoStmt:
		tr.emit(&bp.Stmt{Kind: bp.Goto, Targets: []string{s.Label}, Origin: s})
	case *cast.AssignStmt:
		if call, ok := s.Rhs.(*cast.Call); ok {
			tr.call(s, s.Lhs, call)
			return
		}
		tr.assign(s)
	case *cast.ExprStmt:
		if call, ok := s.X.(*cast.Call); ok {
			tr.call(s, nil, call)
		}
	case *cast.IfStmt:
		tr.ifStmt(s)
	case *cast.WhileStmt:
		tr.whileStmt(s)
	case *cast.AssertStmt:
		cond, err := form.FromCond(s.X)
		if err != nil {
			cond = form.FalseF{}
		}
		// Soundness for error detection: the boolean condition must
		// under-approximate the C condition, so a concrete violation is
		// always a boolean violation. F_V is exactly that.
		e := tr.ab.fv(tr.f.Name, tr.scope, cond)
		tr.emit(&bp.Stmt{Kind: bp.Assert, Cond: e, Origin: s, Comment: "assert(" + s.X.String() + ")"})
	case *cast.AssumeStmt:
		cond, err := form.FromCond(s.X)
		if err != nil {
			cond = form.TrueF{}
		}
		e := tr.ab.gv(tr.f.Name, tr.scope, cond)
		tr.emit(&bp.Stmt{Kind: bp.Assume, Cond: e, Origin: s, Comment: "assume(" + s.X.String() + ")"})
	case *cast.ReturnStmt:
		tr.emit(tr.returnStmt(s))
	}
}

func (tr *translator) ifStmt(s *cast.IfStmt) {
	tr.ab.Stats.Conditionals++
	cond, err := form.FromCond(s.Cond)
	if err != nil {
		cond = form.TrueF{}
	}
	lt, lf, le := tr.freshLabel(), tr.freshLabel(), tr.freshLabel()
	tr.emit(&bp.Stmt{Kind: bp.Goto, Targets: []string{lt, lf}, Origin: s,
		Comment: "if (" + s.Cond.String() + ")"})
	// Then branch: assume(G_V(cond)).
	tr.pendingLabels = append(tr.pendingLabels, lt)
	tr.emit(&bp.Stmt{Kind: bp.Assume, Cond: tr.ab.gv(tr.f.Name, tr.scope, cond),
		Origin: BranchOrigin{Stmt: s, Then: true}})
	if s.Then != nil {
		tr.stmt(s.Then)
	}
	tr.emit(&bp.Stmt{Kind: bp.Goto, Targets: []string{le}})
	// Else branch: assume(G_V(¬cond)).
	tr.pendingLabels = append(tr.pendingLabels, lf)
	notCond := form.NNF(form.MkNot(cond))
	tr.emit(&bp.Stmt{Kind: bp.Assume, Cond: tr.ab.gv(tr.f.Name, tr.scope, notCond),
		Origin: BranchOrigin{Stmt: s, Then: false}})
	if s.Else != nil {
		tr.stmt(s.Else)
	}
	tr.pendingLabels = append(tr.pendingLabels, le)
	tr.emit(&bp.Stmt{Kind: bp.Skip})
}

func (tr *translator) whileStmt(s *cast.WhileStmt) {
	tr.ab.Stats.Conditionals++
	cond, err := form.FromCond(s.Cond)
	if err != nil {
		cond = form.TrueF{}
	}
	lh, lb, le := tr.freshLabel(), tr.freshLabel(), tr.freshLabel()
	tr.pendingLabels = append(tr.pendingLabels, lh)
	tr.emit(&bp.Stmt{Kind: bp.Goto, Targets: []string{lb, le}, Origin: s,
		Comment: "while (" + s.Cond.String() + ")"})
	tr.pendingLabels = append(tr.pendingLabels, lb)
	tr.emit(&bp.Stmt{Kind: bp.Assume, Cond: tr.ab.gv(tr.f.Name, tr.scope, cond),
		Origin: BranchOrigin{Stmt: s, Then: true}})
	if s.Body != nil {
		tr.stmt(s.Body)
	}
	tr.emit(&bp.Stmt{Kind: bp.Goto, Targets: []string{lh}})
	tr.pendingLabels = append(tr.pendingLabels, le)
	notCond := form.NNF(form.MkNot(cond))
	tr.emit(&bp.Stmt{Kind: bp.Assume, Cond: tr.ab.gv(tr.f.Name, tr.scope, notCond),
		Origin: BranchOrigin{Stmt: s, Then: false}})
}

// assign abstracts a non-call assignment (Section 4.3).
func (tr *translator) assign(s *cast.AssignStmt) {
	tr.ab.Stats.Assignments++
	comment := strings.TrimSpace(cast.PrintStmt(s))

	lhsT, errL := form.FromExpr(s.Lhs)
	rhsT, errR := form.FromExpr(s.Rhs)
	if errL != nil || errR != nil || isStructTyped(tr.ab, tr.f.Name, s.Lhs) {
		// Unsupported shape (e.g. whole-struct assignment): havoc every
		// predicate that could be affected.
		tr.havoc(s, comment)
		return
	}

	var lhs []string
	var rhs []bp.Expr
	for _, p := range tr.scope.preds {
		wpPos, okPos := wp.AssignmentOK(tr.oracle, lhsT, rhsT, p.F)
		if tr.ab.opts.SkipUnchanged && okPos && wpPos.String() == p.key {
			// Optimization 2: the predicate is definitely unchanged.
			continue
		}
		wpNeg, _ := wp.AssignmentOK(tr.oracle, lhsT, rhsT, p.Neg())
		pos := tr.ab.fv(tr.f.Name, tr.scope, wpPos)
		neg := tr.ab.fv(tr.f.Name, tr.scope, wpNeg)
		e := mkChoose(pos, neg)
		if r, ok := e.(bp.Ref); ok && r.Name == p.Name {
			continue // identity update
		}
		lhs = append(lhs, p.Name)
		rhs = append(rhs, e)
	}
	if len(lhs) == 0 {
		tr.emit(&bp.Stmt{Kind: bp.Skip, Origin: s, Comment: comment})
		return
	}
	tr.emit(&bp.Stmt{Kind: bp.Assign, Lhs: lhs, Rhs: rhs, Origin: s, Comment: comment})
}

// havoc invalidates every predicate that may be affected by an
// unsupported assignment.
func (tr *translator) havoc(s *cast.AssignStmt, comment string) {
	vars := map[string]bool{}
	collectExprVars(s.Lhs, vars)
	var lhs []string
	var rhs []bp.Expr
	for _, p := range tr.scope.preds {
		affected := false
		for _, v := range form.FormulaVars(p.F) {
			if vars[v] {
				affected = true
			}
		}
		// Any predicate with indirect locations may also be affected.
		if !affected {
			for _, loc := range p.reads {
				if _, isVar := loc.(form.Var); !isVar {
					affected = true
					break
				}
			}
		}
		if affected {
			lhs = append(lhs, p.Name)
			rhs = append(rhs, bp.Unknown{})
		}
	}
	if len(lhs) == 0 {
		tr.emit(&bp.Stmt{Kind: bp.Skip, Origin: s, Comment: comment})
		return
	}
	tr.emit(&bp.Stmt{Kind: bp.Assign, Lhs: lhs, Rhs: rhs, Origin: s, Comment: comment})
}

func collectExprVars(e cast.Expr, out map[string]bool) {
	switch e := e.(type) {
	case *cast.VarRef:
		out[e.Name] = true
	case *cast.Unary:
		collectExprVars(e.X, out)
	case *cast.Binary:
		collectExprVars(e.X, out)
		collectExprVars(e.Y, out)
	case *cast.Field:
		collectExprVars(e.X, out)
	case *cast.Index:
		collectExprVars(e.X, out)
		collectExprVars(e.I, out)
	case *cast.Call:
		for _, a := range e.Args {
			collectExprVars(a, out)
		}
	}
}

func isStructTyped(ab *Abstractor, fn string, e cast.Expr) bool {
	t := ab.res.Info.TypeOf(e)
	_, ok := t.(cast.StructType)
	return ok
}

// mkChoose builds choose(pos, neg) with the obvious simplifications.
func mkChoose(pos, neg bp.Expr) bp.Expr {
	if c, ok := pos.(bp.Const); ok {
		if c.Val {
			return bp.Const{Val: true}
		}
		// choose(false, neg): false when neg, otherwise unknown.
		if cn, ok := neg.(bp.Const); ok {
			if cn.Val {
				return bp.Const{Val: false}
			}
			return bp.Unknown{}
		}
	}
	if cn, ok := neg.(bp.Const); ok && cn.Val {
		// choose(pos, true) ≡ pos.
		return pos
	}
	// Exact update: choose(e, !e) ≡ e.
	if bp.ExprEq(bp.MkNot(pos), neg) {
		return pos
	}
	return bp.Choose{Pos: pos, Neg: neg}
}

// call abstracts "lhs = callee(args)" or "callee(args)" (Section 4.5.3).
func (tr *translator) call(origin cast.Stmt, lhs cast.Expr, c *cast.Call) {
	tr.ab.Stats.Calls++
	callee := tr.ab.res.Prog.Func(c.Name)
	calleeSig := tr.ab.sigs[c.Name]
	if callee == nil || calleeSig == nil {
		tr.emit(&bp.Stmt{Kind: bp.Skip, Origin: origin, Comment: "call to unknown " + c.Name})
		return
	}
	comment := strings.TrimSpace(cast.PrintStmt(origin))

	// Actual argument terms.
	argTerms := make([]form.Term, len(c.Args))
	for i, a := range c.Args {
		t, err := form.FromExpr(a)
		if err != nil {
			t = form.Var{Name: "$badarg$"}
		}
		argTerms[i] = t
	}
	formalNames := make([]string, len(callee.Params))
	for i, p := range callee.Params {
		formalNames[i] = p.Name
	}

	// 1. Compute actuals for the callee's formal-parameter predicates:
	//    e' = e[a/f], passed as choose(F(e'), F(¬e')).
	args := make([]bp.Expr, len(calleeSig.Ef))
	for i, ep := range calleeSig.Ef {
		eprime := substVars(ep.F, formalNames, argTerms)
		pos := tr.ab.fv(tr.f.Name, tr.scope, eprime)
		neg := tr.ab.fv(tr.f.Name, tr.scope, form.NNF(form.MkNot(eprime)))
		args[i] = mkChoose(pos, neg)
	}

	// 2. Fresh temporaries receive the return predicates, with their
	//    meanings translated to the calling context: e_i[v/r, a/f].
	var lhsTerm form.Term
	if lhs != nil {
		if t, err := form.FromExpr(lhs); err == nil {
			lhsTerm = t
		}
	}
	retVar := tr.ab.res.RetVar[c.Name]
	temps := make([]string, len(calleeSig.Er))
	tempPreds := make([]Pred, 0, len(calleeSig.Er))
	for i, ep := range calleeSig.Er {
		temps[i] = tr.freshTemp()
		names := formalNames
		terms := argTerms
		mentionsRet := retVar != "" && containsVar(form.FormulaVars(ep.F), retVar)
		if mentionsRet {
			if lhsTerm == nil {
				// Result discarded: the temp's meaning is unusable.
				continue
			}
			names = append(append([]string{}, formalNames...), retVar)
			terms = append(append([]form.Term{}, argTerms...), lhsTerm)
		}
		eprime := substVars(ep.F, names, terms)
		tempPreds = append(tempPreds, NewPred(temps[i], eprime))
	}
	tr.emit(&bp.Stmt{
		Kind: bp.Call, Callee: c.Name, Args: args, CallLhs: temps,
		Origin: origin, Comment: comment,
	})

	// 3. Update caller-local predicates whose value may have changed
	//    (global predicate variables are updated by the callee itself).
	var updPreds []Pred
	for _, p := range tr.ab.localPreds[tr.f.Name] {
		if tr.predNeedsUpdate(p, lhsTerm, argTerms) {
			updPreds = append(updPreds, p)
		}
	}
	if len(updPreds) == 0 {
		return
	}
	inUpd := map[string]bool{}
	for _, p := range updPreds {
		inUpd[p.Name] = true
	}
	// Domain: unchanged predicates (E') plus the translated return
	// predicates (T).
	var domain []Pred
	for _, p := range tr.scope.preds {
		if !inUpd[p.Name] {
			domain = append(domain, p)
		}
	}
	domain = append(domain, tempPreds...)
	dsc := tr.ab.scopeOf(domain)

	var updLhs []string
	var updRhs []bp.Expr
	for _, p := range updPreds {
		pos := tr.ab.fv(tr.f.Name, dsc, p.F)
		neg := tr.ab.fv(tr.f.Name, dsc, p.Neg())
		updLhs = append(updLhs, p.Name)
		updRhs = append(updRhs, mkChoose(pos, neg))
	}
	// No Origin: the post-call update has no C-level counterpart (Newton
	// must not re-execute the call's effect).
	tr.emit(&bp.Stmt{Kind: bp.Assign, Lhs: updLhs, Rhs: updRhs,
		Comment: "post-call update"})
}

// predNeedsUpdate implements the paper's E_u: predicates mentioning the
// call result, a global variable, or a location reachable through a
// pointer actual (or an alias of one).
func (tr *translator) predNeedsUpdate(p Pred, lhsTerm form.Term, argTerms []form.Term) bool {
	// Mentions the result location?
	if lhsTerm != nil {
		for _, loc := range p.reads {
			if form.TermEq(loc, lhsTerm) || tr.ab.aa.MayAlias(tr.f.Name, loc, lhsTerm) {
				return true
			}
		}
	}
	// Mentions a global variable?
	for _, v := range form.FormulaVars(p.F) {
		if tr.ab.res.Info.IsGlobal(tr.f.Name, v) {
			return true
		}
	}
	// Mentions memory reachable from a pointer actual?
	for _, loc := range p.reads {
		if _, isVar := loc.(form.Var); isVar {
			continue // locals can't be changed through the heap unless aliased
		}
		for _, a := range argTerms {
			if tr.ab.aa.ReachableMayAlias(tr.f.Name, loc, a) {
				return true
			}
		}
	}
	return false
}

func containsVar(vars []string, v string) bool {
	for _, x := range vars {
		if x == v {
			return true
		}
	}
	return false
}

// substVars performs simultaneous substitution of variables by terms.
func substVars(f form.Formula, names []string, terms []form.Term) form.Formula {
	// Two-phase to make it simultaneous: name_i → $sub_i$ → term_i.
	for i, n := range names {
		f = form.Subst(f, form.Var{Name: n}, form.Var{Name: fmt.Sprintf("$sub%d$", i)})
	}
	for i, t := range terms {
		f = form.Subst(f, form.Var{Name: fmt.Sprintf("$sub%d$", i)}, t)
	}
	return f
}
