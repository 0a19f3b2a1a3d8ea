// Package slam implements the SLAM process (paper Section 6.1): given a C
// program and a temporal safety property, iterate (1) abstraction with
// C2bp, (2) model checking with Bebop, (3) predicate discovery with
// Newton, until the property is validated or a feasible error path is
// found. The toolkit never reports spurious error paths: infeasible
// counterexamples refine the abstraction instead.
package slam

import (
	"context"
	"fmt"
	"strings"
	"time"

	"predabs/internal/abstract"
	"predabs/internal/alias"
	"predabs/internal/bebop"
	"predabs/internal/bp"
	"predabs/internal/budget"
	"predabs/internal/cast"
	"predabs/internal/checkpoint"
	"predabs/internal/cnorm"
	"predabs/internal/cparse"
	"predabs/internal/ctype"
	"predabs/internal/newton"
	"predabs/internal/prover"
	"predabs/internal/spec"
	tracepkg "predabs/internal/trace"
)

// Outcome classifies a verification run.
type Outcome int

// Verification outcomes.
const (
	// Verified: no abort/assert violation is reachable.
	Verified Outcome = iota
	// ErrorFound: a feasible error path exists; see Result.Trace.
	ErrorFound
	// Unknown: the refinement loop stopped without an answer (iteration
	// budget, no new predicates, or prover incompleteness).
	Unknown
)

func (o Outcome) String() string {
	switch o {
	case Verified:
		return "verified"
	case ErrorFound:
		return "error-found"
	case Unknown:
		return "unknown"
	}
	return "?"
}

// Config tunes the CEGAR loop.
type Config struct {
	// MaxIterations bounds the abstract-check-refine loop (default 10).
	MaxIterations int
	// Opts configures C2bp.
	Opts abstract.Options
	// InitialPreds seeds the predicate set (may be nil).
	InitialPreds []cparse.PredSection
	// Trace enables per-iteration logging through Logf.
	Logf func(format string, args ...any)
	// Tracer receives structured events from every pipeline stage
	// (frontend, abstraction, cube search, prover, Bebop, Newton, CEGAR
	// iterations). nil disables tracing at zero cost.
	Tracer *tracepkg.Tracer
	// Limits bounds the run's resources: whole-run wall clock, per-query
	// prover timeout, per-procedure cube budget and Bebop BDD node
	// ceiling. Every limit degrades soundly (the answer weakens toward
	// Unknown, never toward a wrong Verified/ErrorFound claim); zero
	// values are unlimited.
	Limits budget.Limits
	// Checkpoint persists refinement state across process deaths: each
	// iteration boundary appends one durable journal record (predicate
	// pool, per-procedure signatures, prover-cache spill), and when the
	// manager replayed a snapshot on open, the loop resumes after the
	// last committed iteration with the pool and prover cache warm. A
	// resumed run produces byte-identical deterministic results
	// (outcome, iterations, predicates, prover calls) to an
	// uninterrupted one. nil disables checkpointing; persistence errors
	// are logged, never fatal to the verification itself.
	Checkpoint *checkpoint.Manager
	// Progress, when non-nil, receives a heartbeat at each refining
	// CEGAR iteration boundary — the same commit point the checkpoint
	// journals — with the 1-based iteration number that just refined, the
	// predicate-pool size entering the next iteration, the cumulative
	// prover interaction count (queries + incremental-session checks) and
	// the active abstraction engine. Iterations that end the run
	// (verdict, give-up, limit) emit no heartbeat; the outcome channel
	// covers them. Pure observability: the loop never depends on it, and
	// a slow or failing hook only delays the boundary it runs on.
	Progress func(iter, preds int, queries int64, engine string)
	// Prover overrides the theorem prover — the hook for fault injection
	// and alternative decision procedures. nil builds a prover.New()
	// configured from Limits. An override is used as-is (QueryTimeout
	// from Limits is NOT applied to it); prover statistics appear in the
	// Result only when the override implements the optional Calls /
	// CacheHits / SolverTime / Timeouts methods.
	Prover prover.Querier
}

// DefaultConfig returns the standard configuration.
func DefaultConfig() Config {
	return Config{MaxIterations: 10, Opts: abstract.DefaultOptions()}
}

// Result reports a verification run.
type Result struct {
	Outcome    Outcome
	Iterations int
	// Predicates used in the final round, per scope.
	Predicates map[string][]string
	// PredCount is the total number of predicates in the final round.
	PredCount int
	// ProverCalls accumulates theorem prover calls across all rounds.
	ProverCalls int
	// CacheHits accumulates prover queries answered from the memo cache
	// (optimization 5 working across CEGAR iterations).
	CacheHits int
	// ProverSessions, SessionChecks, ModelsExtracted and BlockingClauses
	// accumulate the model-enumeration engine's incremental-session
	// activity across all rounds; all zero under the default cube engine.
	// ProverCalls + SessionChecks is the run's total prover interaction
	// count, the number to compare across engines.
	ProverSessions  int
	SessionChecks   int
	ModelsExtracted int
	BlockingClauses int
	// SearchNodes, TheoryLeaves and TheoryMemoHits are the prover's
	// search effort (see prover.Prover.SearchNodes): DPLL nodes, theory
	// leaves and leaves answered from the theory-leaf memo. They count
	// this process's work only; a resumed run does not inherit them.
	SearchNodes    int
	TheoryLeaves   int
	TheoryMemoHits int
	// SolverTime is the cumulative wall time inside the decision
	// procedures.
	SolverTime time.Duration
	// AbstractTime, CheckTime and NewtonTime are the per-stage wall
	// times accumulated across all CEGAR iterations (C2bp, Bebop, Newton
	// respectively), the paper's "C2bp dominates the cost" observation
	// made measurable.
	AbstractTime time.Duration
	CheckTime    time.Duration
	NewtonTime   time.Duration
	// CheckIterations accumulates Bebop worklist iterations across all
	// CEGAR rounds; CheckIterationsByProc splits them per procedure.
	CheckIterations       int
	CheckIterationsByProc map[string]int
	// ErrorTrace holds the C-level rendering of the feasible error path.
	ErrorTrace []string
	// BPTrace is the boolean-program trace of the error.
	BPTrace []bebop.Step
	// FinalBP is the last boolean program (diagnostics).
	FinalBP *bp.Program
	// LimitStage and LimitName identify the first resource limit the run
	// hit ("" when none): the stage that degraded ("prover", "abstract",
	// "bebop", "newton", "slam") and the canonical limit name (see
	// package budget). An Unknown outcome with a non-empty LimitName is a
	// resource retreat, not a refinement dead end.
	LimitStage, LimitName string
	// Degradations lists every sound weakening taken under a resource
	// limit, deduplicated by (stage, limit) with repeat counts.
	Degradations []budget.Event
	// PartialInvariants holds the labelled reachable-state invariants of
	// the last abstraction when the loop stopped without a verdict
	// (iteration budget, resource limit, or no new predicates): partial
	// results that remain sound over-approximations for the predicate
	// set in Predicates.
	PartialInvariants []string
}

// VerifySpec checks a temporal-safety specification against a MiniC
// program: the spec is instrumented, then the abort reachability question
// is answered by the CEGAR loop.
func VerifySpec(src, specSrc, entry string, cfg Config) (*Result, error) {
	return VerifySpecCtx(context.Background(), src, specSrc, entry, cfg)
}

// VerifySpecCtx is VerifySpec under a cancellation context: when ctx is
// cancelled (or cfg.Limits.RunTimeout elapses) the loop retreats soundly
// to Unknown, carrying whatever partial results the finished stages
// produced.
func VerifySpecCtx(ctx context.Context, src, specSrc, entry string, cfg Config) (*Result, error) {
	parseSpan := cfg.Tracer.Begin("frontend", "parse")
	prog, err := cparse.Parse(src)
	parseSpan.End()
	if err != nil {
		return nil, fmt.Errorf("slam: parse: %w", err)
	}
	sp, err := spec.Parse(specSrc)
	if err != nil {
		return nil, fmt.Errorf("slam: spec: %w", err)
	}
	inst, err := spec.Instrument(prog, sp, entry)
	if err != nil {
		return nil, fmt.Errorf("slam: instrument: %w", err)
	}
	return VerifyProgramCtx(ctx, inst, entry, cfg)
}

// Verify checks that no assert in the program can fail, starting from
// entry.
func Verify(src, entry string, cfg Config) (*Result, error) {
	return VerifyCtx(context.Background(), src, entry, cfg)
}

// VerifyCtx is Verify under a cancellation context; see VerifySpecCtx.
func VerifyCtx(ctx context.Context, src, entry string, cfg Config) (*Result, error) {
	parseSpan := cfg.Tracer.Begin("frontend", "parse")
	prog, err := cparse.Parse(src)
	parseSpan.End()
	if err != nil {
		return nil, fmt.Errorf("slam: parse: %w", err)
	}
	return VerifyProgramCtx(ctx, prog, entry, cfg)
}

// VerifyProgram runs the CEGAR loop on a parsed program.
func VerifyProgram(prog *cast.Program, entry string, cfg Config) (*Result, error) {
	return VerifyProgramCtx(context.Background(), prog, entry, cfg)
}

// VerifyProgramCtx runs the CEGAR loop on a parsed program under a
// cancellation context and the resource limits in cfg.Limits.
func VerifyProgramCtx(ctx context.Context, prog *cast.Program, entry string, cfg Config) (*Result, error) {
	out, err := verifyProgram(ctx, prog, entry, cfg)
	if err == nil && out != nil {
		cfg.Tracer.Event("slam", "outcome",
			tracepkg.Str("outcome", out.Outcome.String()),
			tracepkg.Int("iterations", out.Iterations))
	}
	return out, err
}

func verifyProgram(ctx context.Context, prog *cast.Program, entry string, cfg Config) (out *Result, retErr error) {
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 10
	}
	if cfg.Opts == (abstract.Options{}) {
		cfg.Opts = abstract.DefaultOptions()
	}
	if cfg.Tracer != nil {
		cfg.Opts.Tracer = cfg.Tracer
	}
	tracer := cfg.Tracer
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	if cfg.Limits.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Limits.RunTimeout)
		defer cancel()
	}
	bt := budget.New(ctx, cfg.Limits, tracer)
	cfg.Opts.Budget = bt
	if cfg.Limits.CubeBudget > 0 {
		cfg.Opts.CubeBudget = cfg.Limits.CubeBudget
	}
	bebopLimits := bebop.Limits{Budget: bt, MaxBDDNodes: cfg.Limits.BDDMaxNodes}

	var res *cnorm.Result
	var aa *alias.Analysis
	if err := runStage("frontend", func() error {
		info, err := ctype.Check(prog)
		if err != nil {
			return fmt.Errorf("type check: %w", err)
		}
		res, err = cnorm.Normalize(info)
		if err != nil {
			return fmt.Errorf("normalize: %w", err)
		}
		aliasSpan := tracer.Begin("frontend", "alias")
		aa = alias.Analyze(res)
		aliasSpan.End()
		return nil
	}); err != nil {
		return nil, fmt.Errorf("slam: %w", err)
	}

	pv := cfg.Prover
	if pv == nil {
		p := prover.New()
		p.Trace = tracer
		p.QueryTimeout = cfg.Limits.QueryTimeout
		p.Budget = bt
		pv = p
	}

	// Predicate pool, per scope, in insertion order.
	pool := map[string][]string{}
	poolSeen := map[string]bool{}
	addPred := func(scope, text string) bool {
		key := scope + "\x00" + text
		if poolSeen[key] {
			return false
		}
		poolSeen[key] = true
		pool[scope] = append(pool[scope], text)
		return true
	}
	for _, sec := range cfg.InitialPreds {
		for i := range sec.Exprs {
			addPred(sec.Name, sec.Texts[i])
		}
	}

	ckpt := cfg.Checkpoint
	out = &Result{Outcome: Unknown, CheckIterationsByProc: map[string]int{}}
	defer func() {
		// Runs after the degradation defer below (LIFO), so LimitName is
		// final: journal the outcome durably on every loop exit —
		// including the deadline retreat, so a timed-out run's journal
		// ends on a final record before the process exits.
		if retErr != nil || out == nil || ckpt == nil {
			return
		}
		if err := ckpt.AppendFinal(out.Outcome.String(), out.LimitName); err != nil {
			logf("slam: checkpoint final record failed: %v", err)
		}
		tracer.Event("checkpoint", "final",
			tracepkg.Str("outcome", out.Outcome.String()),
			tracepkg.Int("commits", ckpt.Commits()))
	}()
	defer func() {
		// Stage-error returns hand back a nil result; there is nothing
		// to annotate (named returns: `return nil, err` nils out).
		if out == nil {
			return
		}
		out.Degradations = bt.Events()
		if ev, ok := bt.First(); ok {
			out.LimitStage, out.LimitName = ev.Stage, ev.Limit
		}
	}()

	// Resume: replay the journal's last committed iteration — predicate
	// pool in original insertion order (addPred dedups the InitialPreds
	// prefix), warm prover cache, and the deterministic counters as the
	// base the fresh process accumulates on.
	var base checkpoint.Counters
	startIter := 1
	if snap := ckpt.Snapshot(); snap != nil {
		restoreSpan := tracer.Begin("checkpoint", "restore")
		for _, sp := range snap.Pool {
			for _, text := range sp.Preds {
				addPred(sp.Scope, text)
			}
		}
		if imp, ok := pv.(interface{ ImportCache([]prover.CacheEntry) }); ok {
			imp.ImportCache(snap.Cache)
		}
		base = snap.Counters
		startIter = snap.Iter + 1
		// Seed the result as if iterations 1..snap.Iter ran here, so
		// every exit path — including "iteration budget already spent",
		// where the loop body never runs — reports the same totals an
		// uninterrupted run would.
		out.Iterations = snap.Iter
		out.ProverCalls = base.ProverCalls
		out.CacheHits = base.CacheHits
		out.ProverSessions = base.ProverSessions
		out.SessionChecks = base.SessionChecks
		out.ModelsExtracted = base.ModelsExtracted
		out.BlockingClauses = base.BlockingClauses
		out.CheckIterations = base.CheckIterations
		for p, n := range base.CheckIterationsByProc {
			out.CheckIterationsByProc[p] = n
		}
		restoreSpan.End(tracepkg.Int("iteration", snap.Iter),
			tracepkg.Int("cache_entries", len(snap.Cache)))
		logf("slam: resumed from checkpoint: iteration %d committed, %d cached verdicts",
			snap.Iter, len(snap.Cache))
	}
	// lastChecker keeps the most recent Bebop fixpoint so an inconclusive
	// exit can surface its invariants as partial results.
	var lastChecker *bebop.Checker
	keepPartial := func() {
		if lastChecker == nil {
			return
		}
		// Entry invariants cover label-free programs; labelled invariants
		// add the user's marked program points. A degraded fixpoint makes
		// these under-approximations of the abstract reachable states —
		// still honest partial results, flagged by out.LimitName.
		for _, pr := range lastChecker.Prog.Procs {
			if len(pr.Stmts) == 0 {
				continue
			}
			inv := lastChecker.InvariantString(pr.Name, 0)
			if inv == "" {
				// Reachable with no predicate variables in scope.
				inv = "true"
			}
			out.PartialInvariants = append(out.PartialInvariants,
				pr.Name+": entry: "+inv)
		}
		out.PartialInvariants = append(out.PartialInvariants, lastChecker.LabelledInvariants()...)
	}
	for iter := startIter; iter <= cfg.MaxIterations; iter++ {
		if bt.Cancelled() {
			bt.Degrade("slam", budget.LimitDeadline,
				fmt.Sprintf("stopped before iteration %d", iter))
			logf("slam: deadline hit; answer unknown")
			keepPartial()
			return out, nil
		}
		out.Iterations = iter
		sections := poolSections(res, pool)
		out.Predicates = map[string][]string{}
		out.PredCount = 0
		for _, sec := range sections {
			out.Predicates[sec.Name] = append([]string{}, sec.Texts...)
			out.PredCount += len(sec.Texts)
		}
		logf("slam iteration %d: %d predicates", iter, out.PredCount)
		iterSpan := tracer.Begin("slam", "iteration")
		endIter := func() {
			iterSpan.End(tracepkg.Int("n", iter), tracepkg.Int("predicates", out.PredCount))
		}

		absStart := time.Now()
		var abs *abstract.Result
		err := runStage("abstract", func() (err error) {
			abs, err = abstract.Abstract(res, aa, pv, sections, cfg.Opts)
			return err
		})
		out.AbstractTime += time.Since(absStart)
		if err != nil {
			return nil, fmt.Errorf("slam (iteration %d): %w", iter, err)
		}
		out.FinalBP = abs.BP
		recordProverStats(out, pv, base)

		checkStart := time.Now()
		var checker *bebop.Checker
		err = runStage("bebop", func() (err error) {
			checker, err = bebop.CheckLimited(abs.BP, entry, tracer, bebopLimits)
			return err
		})
		out.CheckTime += time.Since(checkStart)
		if err != nil {
			return nil, fmt.Errorf("slam (iteration %d): %w", iter, err)
		}
		lastChecker = checker
		out.CheckIterations += checker.Iterations
		for p, n := range checker.IterationsByProc {
			out.CheckIterationsByProc[p] += n
		}
		failure, bad := checker.ErrorReachable()
		if !bad {
			if checker.Degraded {
				// The truncated fixpoint under-approximates reachability:
				// absence of a failure in the explored prefix proves
				// nothing. Retreat to Unknown with the partial fixpoint.
				logf("slam: bebop hit %s; answer unknown", checker.DegradeReason)
				out.Outcome = Unknown
				keepPartial()
				endIter()
				return out, nil
			}
			out.Outcome = Verified
			logf("slam: verified after %d iteration(s)", iter)
			endIter()
			return out, nil
		}

		trace, ok := checker.Trace(entry, failure)
		if !ok {
			logf("slam: counterexample trace extraction failed")
			out.Outcome = Unknown
			keepPartial()
			endIter()
			return out, nil
		}
		newtonStart := time.Now()
		var nres *newton.Result
		err = runStage("newton", func() (err error) {
			nres, err = newton.AnalyzeLimited(res, aa, pv, trace, tracer, bt)
			return err
		})
		out.NewtonTime += time.Since(newtonStart)
		if err != nil {
			return nil, fmt.Errorf("slam (iteration %d): %w", iter, err)
		}
		recordProverStats(out, pv, base)
		if nres.GaveUp {
			logf("slam: newton gave up on the path condition; answer unknown")
			out.Outcome = Unknown
			keepPartial()
			endIter()
			return out, nil
		}
		if nres.Feasible {
			out.Outcome = ErrorFound
			out.BPTrace = trace
			out.ErrorTrace = nres.Events
			logf("slam: feasible error path found after %d iteration(s)", iter)
			endIter()
			return out, nil
		}

		// Refine.
		added := 0
		for scope, preds := range nres.NewPreds {
			for _, p := range preds {
				if addPred(scope, p) {
					added++
					logf("slam: new predicate [%s] %s", scope, p)
				}
			}
		}
		endIter()
		if added == 0 {
			logf("slam: no new predicates; giving up")
			out.Outcome = Unknown
			keepPartial()
			return out, nil
		}
		// Commit point: the iteration refined the abstraction, so the
		// state entering iteration iter+1 — grown pool, signatures,
		// every fully decided prover verdict — is journaled durably
		// before the next round starts. Iterations that end the run
		// instead are covered by the final record.
		commitCheckpoint(ckpt, tracer, logf, iter, res, pool, abs, pv, out)
		if cfg.Progress != nil {
			poolSize := 0
			for _, preds := range pool {
				poolSize += len(preds)
			}
			engine := cfg.Opts.Engine
			if engine == "" {
				engine = abstract.EngineCubes
			}
			cfg.Progress(iter, poolSize, int64(out.ProverCalls+out.SessionChecks), engine)
		}
	}
	// Iteration budget exhausted: surface the last round's invariants and
	// the predicate pool (already in out.Predicates — the pool only grows,
	// so the final round's set is every predicate tried) as partial
	// results, and record the limit like any other resource retreat.
	bt.Degrade("slam", budget.LimitIterations,
		fmt.Sprintf("refinement stopped after %d iterations", cfg.MaxIterations))
	logf("slam: iteration budget exhausted")
	out.Predicates = map[string][]string{}
	out.PredCount = 0
	for _, scope := range poolScopes(res) {
		if len(pool[scope]) == 0 {
			continue
		}
		out.Predicates[scope] = append([]string{}, pool[scope]...)
		out.PredCount += len(pool[scope])
	}
	keepPartial()
	return out, nil
}

// recordProverStats copies the prover's running counters into the result
// when the Querier exposes them (a Config.Prover override may not). base
// carries the totals a resumed run inherited from its checkpoint: the
// fresh process's prover counts only post-resume work, and the sum
// reproduces the uninterrupted run's totals.
func recordProverStats(out *Result, pv prover.Querier, base checkpoint.Counters) {
	if s, ok := pv.(interface{ Calls() int }); ok {
		out.ProverCalls = base.ProverCalls + s.Calls()
	}
	if s, ok := pv.(interface{ CacheHits() int }); ok {
		out.CacheHits = base.CacheHits + s.CacheHits()
	}
	if s, ok := pv.(interface{ SolverTime() time.Duration }); ok {
		out.SolverTime = s.SolverTime()
	}
	if s, ok := pv.(interface{ Sessions() int }); ok {
		out.ProverSessions = base.ProverSessions + s.Sessions()
	}
	if s, ok := pv.(interface{ SessionChecks() int }); ok {
		out.SessionChecks = base.SessionChecks + s.SessionChecks()
	}
	if s, ok := pv.(interface{ ModelsExtracted() int }); ok {
		out.ModelsExtracted = base.ModelsExtracted + s.ModelsExtracted()
	}
	if s, ok := pv.(interface{ BlockingClauses() int }); ok {
		out.BlockingClauses = base.BlockingClauses + s.BlockingClauses()
	}
	if s, ok := pv.(interface {
		SearchNodes() int
		TheoryLeaves() int
		TheoryMemoHits() int
	}); ok {
		out.SearchNodes, out.TheoryLeaves, out.TheoryMemoHits = s.SearchNodes(), s.TheoryLeaves(), s.TheoryMemoHits()
	}
}

// commitCheckpoint journals one iteration boundary. The prover is
// quiescent here (the loop runs stages sequentially), so the cache
// export is the deterministic boundary state the byte-identical-resume
// guarantee needs. Persistence failures are logged and the run
// continues un-checkpointed — a verification answer is never sacrificed
// to a full disk.
func commitCheckpoint(ckpt *checkpoint.Manager, tracer *tracepkg.Tracer, logf func(string, ...any),
	iter int, res *cnorm.Result, pool map[string][]string, abs *abstract.Result, pv prover.Querier, out *Result) {
	if ckpt == nil || ckpt.ReadOnly() {
		return
	}
	span := tracer.Begin("checkpoint", "commit")
	scopes := poolScopes(res)
	rec := checkpoint.IterationRecord{Iter: iter}
	for _, scope := range scopes {
		if len(pool[scope]) == 0 {
			continue
		}
		rec.Pool = append(rec.Pool, checkpoint.ScopePreds{
			Scope: scope, Preds: append([]string{}, pool[scope]...)})
	}
	rec.Sigs = abstract.SignatureRecords(abs.Sigs, scopes[1:])
	if exp, ok := pv.(interface{ ExportCache() []prover.CacheEntry }); ok {
		rec.Cache = exp.ExportCache()
	}
	rec.Counters = checkpoint.Counters{
		ProverCalls:           out.ProverCalls,
		CacheHits:             out.CacheHits,
		CheckIterations:       out.CheckIterations,
		CheckIterationsByProc: out.CheckIterationsByProc,
		ProverSessions:        out.ProverSessions,
		SessionChecks:         out.SessionChecks,
		ModelsExtracted:       out.ModelsExtracted,
		BlockingClauses:       out.BlockingClauses,
	}
	if err := ckpt.AppendIteration(rec); err != nil {
		logf("slam: checkpoint commit failed: %v (continuing without persistence)", err)
	}
	span.End(tracepkg.Int("n", iter), tracepkg.Int("cache_entries", len(rec.Cache)))
}

// poolSections converts the predicate pool into parsed sections, dropping
// predicates that no longer parse (should not happen).
// poolScopes lists the predicate scopes in deterministic order: global
// first, then program function order.
func poolScopes(res *cnorm.Result) []string {
	scopes := []string{abstract.GlobalScope}
	for _, f := range res.Prog.Funcs {
		scopes = append(scopes, f.Name)
	}
	return scopes
}

func poolSections(res *cnorm.Result, pool map[string][]string) []cparse.PredSection {
	var out []cparse.PredSection
	for _, scope := range poolScopes(res) {
		preds := pool[scope]
		if len(preds) == 0 {
			continue
		}
		src := scope + ":\n  " + strings.Join(preds, ",\n  ")
		secs, err := cparse.ParsePredFile(src)
		if err != nil {
			continue
		}
		out = append(out, secs...)
	}
	return out
}
