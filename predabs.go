// Package predabs is a from-scratch reproduction of "Automatic Predicate
// Abstraction of C Programs" (Ball, Majumdar, Millstein, Rajamani; PLDI
// 2001): the C2bp predicate-abstraction tool, the Bebop boolean-program
// model checker, the Newton predicate-discovery step, and the SLAM
// counterexample-guided abstraction refinement loop that ties them
// together.
//
// The package operates on MiniC, a C subset with integers, structs,
// pointers, arrays (under the paper's logical memory model) and
// procedures. Three entry points cover the paper's workflows:
//
//   - Load + Program.Abstract: run C2bp, producing a boolean program
//     (paper Sections 2-5);
//   - BooleanProgram.Check: run Bebop reachability, yielding
//     per-statement invariants and assertion results (Section 2.2);
//   - Verify / VerifySpec: the full SLAM loop for temporal safety
//     properties, with automatic predicate discovery (Section 6.1).
package predabs

import (
	"context"
	"fmt"
	"time"

	"predabs/internal/abstract"
	"predabs/internal/alias"
	"predabs/internal/bebop"
	"predabs/internal/bp"
	"predabs/internal/budget"
	"predabs/internal/cnorm"
	"predabs/internal/cparse"
	"predabs/internal/ctype"
	"predabs/internal/prover"
	"predabs/internal/slam"
	"predabs/internal/trace"
)

// Version identifies the toolkit build. It feeds the checkpoint
// compatibility hash, so bump it whenever a change alters what any tool
// computes — a stale journal must never warm-start a newer binary.
// 0.5: incremental prover sessions and the model-enumeration engine.
const Version = "0.5"

// Options re-exports the C2bp precision/efficiency knobs (Section 5.2).
type Options = abstract.Options

// Abstraction engine names for Options.Engine / the -abs-engine flag.
// EngineCubes (also the meaning of an empty Engine) is the paper's
// per-cube prover query search; EngineModels computes the same F_V by
// enumerating prover models of the weakest-precondition query and
// classifying cubes by membership. Both emit byte-identical boolean
// programs on non-degraded runs; see DESIGN.md for the tradeoff.
const (
	EngineCubes  = abstract.EngineCubes
	EngineModels = abstract.EngineModels
)

// ValidEngine reports whether s names a known abstraction engine ("",
// meaning the default cube engine, is valid).
func ValidEngine(s string) bool { return abstract.ValidEngine(s) }

// Limits re-exports the resource limits every pipeline stage honours:
// whole-run wall clock, per-prover-query timeout, per-procedure cube
// budget, and Bebop's BDD node ceiling. Hitting any limit weakens the
// result soundly instead of aborting; zero values are unlimited.
type Limits = budget.Limits

// DegradeEvent re-exports one recorded sound weakening: the stage and
// limit that triggered it, with a repeat count.
type DegradeEvent = budget.Event

// DefaultOptions returns the paper's standard configuration: cube length
// limit 3, cone of influence, syntactic heuristics, skip-unchanged, and
// enforce invariants all enabled.
func DefaultOptions() Options { return abstract.DefaultOptions() }

// Program is a parsed, type-checked MiniC program in the paper's simple
// intermediate form, with points-to information attached.
type Program struct {
	norm  *cnorm.Result
	alias *alias.Analysis

	parseTime time.Duration
	aliasTime time.Duration
}

// Load parses, type checks and normalizes MiniC source, then runs the
// flow-insensitive points-to analysis.
func Load(src string) (*Program, error) {
	return load(src, alias.Options{OpenCallers: true})
}

// LoadGhostAliasing loads like Load, but entry-point parameters are NOT
// assumed to alias each other or the heap reachable from other
// parameters. This reproduces the paper's auxiliary-variable idiom
// (Figure 3's h "chosen non-deterministically to point at any element of
// the list"): h and hnext act as ghost observers whose cells the list
// mutations do not touch. The mode is unsound as a general alias
// treatment — use it only for ghost-style observer parameters; see the
// Figure 3 discussion in EXPERIMENTS.md.
func LoadGhostAliasing(src string) (*Program, error) {
	return load(src, alias.Options{OpenCallers: false})
}

// load is the body of Load and LoadGhostAliasing, which differ only in
// the alias options.
func load(src string, opts alias.Options) (*Program, error) {
	start := time.Now()
	parsed, err := cparse.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("predabs: parse: %w", err)
	}
	info, err := ctype.Check(parsed)
	if err != nil {
		return nil, fmt.Errorf("predabs: type check: %w", err)
	}
	norm, err := cnorm.Normalize(info)
	if err != nil {
		return nil, fmt.Errorf("predabs: normalize: %w", err)
	}
	parseTime := time.Since(start)
	aliasStart := time.Now()
	aa := alias.AnalyzeOpts(norm, opts)
	return &Program{
		norm: norm, alias: aa,
		parseTime: parseTime, aliasTime: time.Since(aliasStart),
	}, nil
}

// AbstractStats reports the cost of one abstraction run: the columns of
// the paper's Tables 1 and 2, plus the per-stage timings and prover
// cache behaviour behind the -stats flag of cmd/c2bp.
type AbstractStats struct {
	// Stats carries the prover's counters: ProverCalls is the number of
	// theorem-prover queries, CacheHits the queries answered from the
	// memo cache (the paper's optimization 5), and CacheMisses() the ones
	// that reached the decision procedures. SolverTime is the time
	// inside the decision procedures, part of AbstractTime.
	prover.Stats
	// abstractCounters carries the abstraction's counters: CubesChecked,
	// CubesSkipped and CubeRounds for the cube search, SignatureTime and
	// CubeSearchTime, per-procedure ProcTimes and ProcCubes, and the
	// DegradedProcs a resource limit truncated (their statements are
	// soundly weaker than the most precise abstraction).
	abstractCounters
	// Predicates is the number of input predicates.
	Predicates int

	// ParseTime covers parsing, type checking and normalization (from
	// Load).
	ParseTime time.Duration
	// AliasTime covers the points-to analysis (from Load).
	AliasTime time.Duration
	// AbstractTime covers the whole abstraction run.
	AbstractTime time.Duration

	// Degradations lists every sound weakening taken under a resource
	// limit during this run.
	Degradations []DegradeEvent
}

// abstractCounters names abstract.Stats apart from prover.Stats, so that
// AbstractStats can embed both.
type abstractCounters = abstract.Stats

// BooleanProgram is the result of predicate abstraction: BP(P, E).
type BooleanProgram struct {
	prog  *bp.Program
	stats AbstractStats
}

// Abstract runs C2bp on the program with the given predicate input file
// (sections "procname: e1, e2, ..." and optionally "global: ...").
func (p *Program) Abstract(predicates string, opts Options) (*BooleanProgram, error) {
	return p.AbstractCtx(context.Background(), predicates, opts, Limits{})
}

// AbstractCtx is Abstract under a cancellation context and resource
// limits. Hitting a limit (or the context's deadline) truncates the cube
// search, which weakens the emitted boolean program but keeps it a sound
// abstraction; the truncations appear in Stats().Degradations. A cube
// budget truncates the search in its canonical order, so its output is
// deterministic.
func (p *Program) AbstractCtx(ctx context.Context, predicates string, opts Options, lim Limits) (*BooleanProgram, error) {
	sections, err := cparse.ParsePredFile(predicates)
	if err != nil {
		return nil, fmt.Errorf("predabs: predicates: %w", err)
	}
	if lim.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, lim.RunTimeout)
		defer cancel()
	}
	bt := budget.New(ctx, lim, opts.Tracer)
	opts.Budget = bt
	pv := prover.New()
	pv.Trace = opts.Tracer
	pv.Budget = bt
	start := time.Now()
	res, err := abstract.Abstract(p.norm, p.alias, pv, sections, opts)
	if err != nil {
		return nil, fmt.Errorf("predabs: abstraction: %w", err)
	}
	abstractTime := time.Since(start)
	n := 0
	for _, sec := range sections {
		n += len(sec.Exprs)
	}
	return &BooleanProgram{
		prog: res.BP,
		stats: AbstractStats{
			Stats:            pv.Stats(),
			abstractCounters: res.Stats,
			Predicates:       n,
			ParseTime:        p.parseTime,
			AliasTime:        p.aliasTime,
			AbstractTime:     abstractTime,
			Degradations:     bt.Events(),
		},
	}, nil
}

// Degraded reports whether any resource limit truncated this
// abstraction; the program is then soundly weaker than the most precise
// BP(P, E).
func (b *BooleanProgram) Degraded() bool { return len(b.stats.Degradations) > 0 }

// Text renders the boolean program in its surface syntax (parseable by
// ParseBooleanProgram and the bebop command).
func (b *BooleanProgram) Text() string { return bp.Print(b.prog) }

// Stats returns the abstraction cost metrics.
func (b *BooleanProgram) Stats() AbstractStats { return b.stats }

// ParseBooleanProgram parses boolean-program surface syntax, for use with
// Check (the standalone Bebop workflow).
func ParseBooleanProgram(src string) (*BooleanProgram, error) {
	prog, err := bp.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("predabs: boolean program: %w", err)
	}
	return &BooleanProgram{prog: prog}, nil
}

// CheckResult is the outcome of Bebop reachability analysis.
type CheckResult struct {
	checker *bebop.Checker
	entry   string
	budget  *budget.Tracker
}

// Degraded reports whether a resource limit truncated the fixpoint, and
// which limit. A degraded, failure-free check proves nothing (the
// explored state set under-approximates reachability); a failure found
// by a degraded check is still a genuine abstract failure.
func (r *CheckResult) Degraded() (reason string, degraded bool) {
	return r.checker.DegradeReason, r.checker.Degraded
}

// Degradations lists the sound truncations this check recorded.
func (r *CheckResult) Degradations() []DegradeEvent { return r.budget.Events() }

// Check runs the Bebop model checker from the entry procedure.
func (b *BooleanProgram) Check(entry string) (*CheckResult, error) {
	return b.CheckTraced(entry, nil)
}

// CheckTraced is Check with a structured-event tracer attached (nil
// behaves exactly like Check).
func (b *BooleanProgram) CheckTraced(entry string, tr *trace.Tracer) (*CheckResult, error) {
	return b.CheckCtx(context.Background(), entry, tr, Limits{})
}

// CheckCtx is CheckTraced under a cancellation context and resource
// limits (the BDD node ceiling and the wall clock apply here). A
// truncated fixpoint UNDER-approximates the abstraction's reachable
// states: failures it finds are genuine abstract failures, but a
// failure-free degraded run proves nothing — check Degraded before
// trusting a clean answer.
func (b *BooleanProgram) CheckCtx(ctx context.Context, entry string, tr *trace.Tracer, lim Limits) (*CheckResult, error) {
	if lim.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, lim.RunTimeout)
		defer cancel()
	}
	bt := budget.New(ctx, lim, tr)
	ch, err := bebop.CheckLimited(b.prog, entry, tr, bt)
	if err != nil {
		return nil, fmt.Errorf("predabs: bebop: %w", err)
	}
	return &CheckResult{checker: ch, entry: entry, budget: bt}, nil
}

// CheckStats reports the model checker's cost: worklist iterations to
// the interprocedural fixpoint (total and split per procedure) and the
// fixpoint wall time.
type CheckStats struct {
	Iterations   int
	FixpointTime time.Duration
	// IterationsByProc counts worklist items per procedure.
	IterationsByProc map[string]int
}

// Stats returns the Bebop cost metrics for this check.
func (r *CheckResult) Stats() CheckStats {
	byProc := map[string]int{}
	for p, n := range r.checker.IterationsByProc {
		byProc[p] = n
	}
	return CheckStats{
		Iterations:       r.checker.Iterations,
		FixpointTime:     r.checker.FixpointTime,
		IterationsByProc: byProc,
	}
}

// ErrorReachable reports whether some assert can fail, and where.
func (r *CheckResult) ErrorReachable() (proc string, stmt int, reachable bool) {
	f, bad := r.checker.ErrorReachable()
	return f.Proc, f.Stmt, bad
}

// InvariantAt returns the reachable-state invariant at a labelled
// statement, rendered as a disjunction of cubes over the boolean
// variables (Section 2.2's output format).
func (r *CheckResult) InvariantAt(proc, label string) (string, error) {
	idx, ok := r.checker.StmtAtLabel(proc, label)
	if !ok {
		return "", fmt.Errorf("predabs: no label %q in %q", label, proc)
	}
	return r.checker.InvariantString(proc, idx), nil
}

// InvariantHolds reports whether the boolean-program expression holds in
// every reachable state at the labelled statement.
func (r *CheckResult) InvariantHolds(proc, label, expr string) (bool, error) {
	idx, ok := r.checker.StmtAtLabel(proc, label)
	if !ok {
		return false, fmt.Errorf("predabs: no label %q in %q", label, proc)
	}
	cond, err := bp.ParseExpr(expr)
	if err != nil {
		return false, fmt.Errorf("predabs: expression: %w", err)
	}
	return r.checker.HoldsAt(proc, idx, cond), nil
}

// LabelledInvariants renders "proc:label: invariant" lines for every
// labelled statement in the program (the paper's invariant-detection
// use case).
func (r *CheckResult) LabelledInvariants() []string {
	return r.checker.LabelledInvariants()
}

// ErrorTrace renders a counterexample trace for the first reachable
// assertion violation as human-readable lines.
func (r *CheckResult) ErrorTrace() ([]string, bool) {
	f, bad := r.checker.ErrorReachable()
	if !bad {
		return nil, false
	}
	steps, ok := r.checker.Trace(r.entry, f)
	if !ok {
		return nil, false
	}
	out := make([]string, 0, len(steps))
	for _, s := range steps {
		line := fmt.Sprintf("%s:%d  %s", s.Proc, s.Stmt, bp.StmtString(s.BP))
		if s.BP.Comment != "" {
			line += "   // " + s.BP.Comment
		}
		out = append(out, line)
	}
	return out, true
}

// Outcome re-exports the SLAM verdicts.
type Outcome = slam.Outcome

// SLAM outcomes.
const (
	Verified   = slam.Verified
	ErrorFound = slam.ErrorFound
	Unknown    = slam.Unknown
)

// VerifyResult re-exports the SLAM result.
type VerifyResult = slam.Result

// VerifyConfig re-exports the SLAM configuration.
type VerifyConfig = slam.Config

// DefaultVerifyConfig returns the standard CEGAR configuration.
func DefaultVerifyConfig() VerifyConfig { return slam.DefaultConfig() }

// StageError re-exports the stage-attributed pipeline failure: Verify
// and VerifySpec convert a panicking stage (frontend, abstract, bebop,
// newton) into one of these instead of crashing the process.
type StageError = slam.StageError

// Verify checks that no assert in the MiniC source can fail, running the
// full SLAM abstract-check-refine loop from the entry procedure.
func Verify(src, entry string, cfg VerifyConfig) (*VerifyResult, error) {
	return slam.Verify(src, entry, cfg)
}

// VerifyCtx is Verify under a cancellation context: when ctx is
// cancelled or cfg.Limits.RunTimeout elapses, the loop retreats soundly
// to Unknown with partial results (see VerifyResult.LimitName,
// Degradations and PartialInvariants) instead of hanging.
func VerifyCtx(ctx context.Context, src, entry string, cfg VerifyConfig) (*VerifyResult, error) {
	return slam.VerifyCtx(ctx, src, entry, cfg)
}

// VerifySpec checks a SLIC-style temporal-safety specification against
// the program (see package spec for the specification syntax).
func VerifySpec(src, specSrc, entry string, cfg VerifyConfig) (*VerifyResult, error) {
	return slam.VerifySpec(src, specSrc, entry, cfg)
}

// VerifySpecCtx is VerifySpec under a cancellation context; see
// VerifyCtx.
func VerifySpecCtx(ctx context.Context, src, specSrc, entry string, cfg VerifyConfig) (*VerifyResult, error) {
	return slam.VerifySpecCtx(ctx, src, specSrc, entry, cfg)
}
