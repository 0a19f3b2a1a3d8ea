// Package obs wires the shared observability command-line flags —
// structured tracing, run reports and CPU profiling — into the predabs
// CLIs (c2bp, bebop, slam). It owns the lifecycle: open sinks before the
// run, attach a *trace.Tracer, then flush the Chrome export, render the
// report and stop the profiler afterwards.
package obs

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"time"

	"predabs/internal/abstract"
	"predabs/internal/budget"
	"predabs/internal/checkpoint"
	"predabs/internal/prover"
	"predabs/internal/trace"
)

// Flags holds the shared observability flag values.
type Flags struct {
	// TraceOut is the JSONL structured-event log path (-trace-out).
	TraceOut string
	// ChromeOut is the Chrome trace_event JSON path (-trace-chrome),
	// loadable in Perfetto or chrome://tracing.
	ChromeOut string
	// Report enables the end-of-run text report on stderr (-report).
	Report bool
	// ReportJSON is the end-of-run JSON report path (-report-json).
	ReportJSON string
	// CPUProfile is the pprof CPU profile path (-pprof).
	CPUProfile string

	// Timeout bounds the whole run's wall clock (-timeout); the pipeline
	// degrades soundly to a partial answer instead of being killed.
	Timeout time.Duration
	// QueryTimeout bounds each theorem-prover query (-query-timeout); a
	// timed-out query answers "could not prove".
	QueryTimeout time.Duration
	// CubeBudget caps prover-backed cube candidates per procedure
	// (-cube-budget); exhausted procedures weaken soundly.
	CubeBudget int
	// BDDMaxNodes caps Bebop's BDD node count (-bdd-max-nodes); hitting
	// it truncates the fixpoint, so a failure-free answer means unknown.
	BDDMaxNodes int

	// State is the checkpoint state directory (-state): enable the
	// durable journal there, warm-starting from a compatible one when it
	// exists, cold-starting (with a diagnostic) otherwise.
	State string
	// Resume (-resume) makes warm-starting mandatory: a missing,
	// corrupted or incompatible journal is a startup error instead of a
	// silent cold start.
	Resume bool
	// NoPersist (-no-persist) warm-starts read-only: the journal is
	// replayed but never written, not even torn-tail repairs.
	NoPersist bool
}

// Group names a set of flags beyond the observability sinks and
// -timeout, which every CLI takes. A CLI registers only the groups whose
// values its pipeline reads.
type Group int

const (
	// ProverLimits is -query-timeout and -cube-budget (tools that run
	// C2bp's prover queries).
	ProverLimits Group = 1 << iota
	// BDDLimit is -bdd-max-nodes (tools that run Bebop).
	BDDLimit
	// Checkpoint is -state, -resume and -no-persist (the SLAM loop, the
	// one pipeline that carries state across iterations).
	Checkpoint
)

// Register declares the observability flags, -timeout and the given
// groups on the default flag set.
func Register(groups Group) *Flags {
	f := &Flags{}
	flag.StringVar(&f.TraceOut, "trace-out", "", "write structured JSONL trace events to `file`")
	flag.StringVar(&f.ChromeOut, "trace-chrome", "", "write a Chrome trace_event JSON (Perfetto-loadable) to `file`")
	flag.BoolVar(&f.Report, "report", false, "print an end-of-run report to stderr")
	flag.StringVar(&f.ReportJSON, "report-json", "", "write the end-of-run report as JSON to `file`")
	flag.StringVar(&f.CPUProfile, "pprof", "", "write a CPU profile to `file`")
	flag.DurationVar(&f.Timeout, "timeout", 0, "whole-run wall-clock deadline (0 = none); the run degrades soundly and reports partial results")
	if groups&ProverLimits != 0 {
		flag.DurationVar(&f.QueryTimeout, "query-timeout", 0, "per-prover-query deadline (0 = none); timed-out queries count as \"could not prove\"")
		flag.IntVar(&f.CubeBudget, "cube-budget", 0, "max prover-backed cube candidates per procedure (0 = unlimited)")
	}
	if groups&BDDLimit != 0 {
		flag.IntVar(&f.BDDMaxNodes, "bdd-max-nodes", 0, "Bebop BDD node ceiling (0 = unlimited); exceeding it truncates the fixpoint")
	}
	if groups&Checkpoint != 0 {
		flag.StringVar(&f.State, "state", "", "checkpoint state `dir`: journal refinement state there and warm-start from a compatible journal")
		flag.BoolVar(&f.Resume, "resume", false, "require a valid compatible journal in -state (error instead of cold start)")
		flag.BoolVar(&f.NoPersist, "no-persist", false, "warm-start from -state read-only; never write the journal")
	}
	return f
}

// OpenCheckpointW applies the -state/-resume/-no-persist semantics for
// key, returning the manager to hand to the SLAM loop (nil when -state
// is unset). Diagnostics — torn-tail repairs, rejected journals — go to
// w and the tracer; a corrupt or incompatible journal under plain
// -state cold-starts with a fresh journal, under -resume it is fatal.
// The runner package calls it for slam and predabsd workers alike.
func (f *Flags) OpenCheckpointW(w io.Writer, key checkpoint.CompatKey, tracer *trace.Tracer) (*checkpoint.Manager, error) {
	if f.State == "" {
		if f.Resume || f.NoPersist {
			return nil, fmt.Errorf("-resume and -no-persist require -state")
		}
		return nil, nil
	}
	m, err := checkpoint.Open(nil, f.State, key, f.NoPersist)
	if err != nil {
		var ce *checkpoint.CorruptError
		var ie *checkpoint.IncompatibleError
		if !errors.As(err, &ce) && !errors.As(err, &ie) {
			return nil, err
		}
		if f.Resume {
			return nil, fmt.Errorf("%w (-resume forbids a cold start)", err)
		}
		fmt.Fprintf(w, "warning: %v; cold-starting with a fresh journal\n", err)
		tracer.Event("checkpoint", "coldstart", trace.Str("reason", err.Error()))
		if f.NoPersist {
			// Nothing to recreate read-only: run stateless.
			return nil, nil
		}
		return checkpoint.Create(nil, f.State, key)
	}
	for _, warning := range m.Warnings() {
		fmt.Fprintf(w, "warning: checkpoint: %s\n", warning)
		tracer.Event("checkpoint", "repair", trace.Str("detail", warning))
	}
	if f.Resume && m.Snapshot() == nil {
		m.Close()
		return nil, fmt.Errorf("checkpoint: %s: no committed iteration to resume from (-resume forbids a cold start)", f.State)
	}
	return m, nil
}

// Validate rejects nonsensical limit flag values before any work runs.
// The wall-clock flags default to 0 ("no limit"), so they are only
// checked when the user set them explicitly on the default flag set —
// an explicit -timeout 0 (or a negative one) is a contradiction, not a
// request for an unlimited run. Counting limits must not be negative.
// The returned errors are flag:value-style diagnostics; callers print
// them and exit 2 (usage error), mirroring the parse-failure contract.
func (f *Flags) Validate() error {
	set := map[string]bool{}
	flag.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
	if set["timeout"] && f.Timeout <= 0 {
		return fmt.Errorf("flag -timeout: %v: must be positive (omit the flag for no deadline)", f.Timeout)
	}
	if set["query-timeout"] && f.QueryTimeout <= 0 {
		return fmt.Errorf("flag -query-timeout: %v: must be positive (omit the flag for no deadline)", f.QueryTimeout)
	}
	if f.CubeBudget < 0 {
		return fmt.Errorf("flag -cube-budget: %d: must not be negative (0 = unlimited)", f.CubeBudget)
	}
	if f.BDDMaxNodes < 0 {
		return fmt.Errorf("flag -bdd-max-nodes: %d: must not be negative (0 = unlimited)", f.BDDMaxNodes)
	}
	return nil
}

// WriteProverStats renders the prover lines that the -stats output of
// c2bp and slam share: the incremental-session counters (only when a
// session was opened) and the search and theory effort.
func WriteProverStats(w io.Writer, s prover.Stats) {
	if s.ProverSessions > 0 {
		fmt.Fprintf(w, "prover sessions: %d\nsession checks: %d\nmodels extracted: %d\nblocking clauses: %d\n",
			s.ProverSessions, s.SessionChecks, s.ModelsExtracted, s.BlockingClauses)
	}
	fmt.Fprintf(w, "prover model answers: %d\nprover model evaluations: %d\n", s.ModelAnswers, s.ModelEvals)
	fmt.Fprintf(w, "prover search nodes: %d\ntheory leaves: %d (memo hits: %d)\nfourier-motzkin runs: %d\nequality probes: %d\nfull-probe rounds (no witness): %d\ncongruence unions: %d\n",
		s.SearchNodes, s.TheoryLeaves, s.TheoryMemoHits, s.FMRuns, s.EqualityProbes, s.FullProbeRounds, s.CCUnions)
}

// WriteCubeStats renders the cube search's counters, which the -stats
// output of c2bp and slam share.
func WriteCubeStats(w io.Writer, s abstract.CubeStats) {
	fmt.Fprintf(w, "cubes checked: %d (reused %d F_V results, %d enforce invariants)\ncube-search rounds: %d\nenforce cubes skipped: %d\ncube search time: %v\n",
		s.CubesChecked, s.FVReused, s.EnforceReused, s.CubeRounds, s.CubesSkipped, s.CubeSearchTime)
}

// WriteProcIterations renders the per-procedure Bebop worklist
// iterations that the -stats output of bebop and slam share, one
// "  proc NAME: N" line per procedure in name order.
func WriteProcIterations(w io.Writer, byProc map[string]int) {
	procs := make([]string, 0, len(byProc))
	for p := range byProc {
		procs = append(procs, p)
	}
	sort.Strings(procs)
	for _, p := range procs {
		fmt.Fprintf(w, "  proc %s: %d\n", p, byProc[p])
	}
}

// Limits bundles the resource-limit flag values.
func (f *Flags) Limits() budget.Limits {
	return budget.Limits{
		RunTimeout:   f.Timeout,
		QueryTimeout: f.QueryTimeout,
		CubeBudget:   f.CubeBudget,
		BDDMaxNodes:  f.BDDMaxNodes,
	}
}

// Context returns the run's root context, honouring -timeout. Call the
// returned cancel func when the run finishes.
func (f *Flags) Context() (context.Context, context.CancelFunc) {
	if f.Timeout > 0 {
		return context.WithTimeout(context.Background(), f.Timeout)
	}
	return context.WithCancel(context.Background())
}

// session tracks the open sinks between Start and Finish.
type session struct {
	flags     *Flags
	tracer    *trace.Tracer
	jsonlFile *os.File
	pprofFile *os.File
}

// Start opens the requested sinks and returns the tracer to thread
// through the pipeline (nil when no observability flag was given, which
// disables tracing at zero cost) plus a finish func to call after the
// run. The finish func is safe to call exactly once, including on the
// error paths that skip the run's output.
func (f *Flags) Start() (*trace.Tracer, func() error, error) {
	s := &session{flags: f}
	var cfg trace.Config
	if f.TraceOut != "" {
		file, err := os.Create(f.TraceOut)
		if err != nil {
			return nil, nil, fmt.Errorf("trace-out: %w", err)
		}
		s.jsonlFile = file
		cfg.JSONL = file
	}
	cfg.RetainChrome = f.ChromeOut != ""
	if f.TraceOut != "" || f.ChromeOut != "" || f.Report || f.ReportJSON != "" {
		s.tracer = trace.New(cfg)
	}
	if f.CPUProfile != "" {
		file, err := os.Create(f.CPUProfile)
		if err != nil {
			s.close()
			return nil, nil, fmt.Errorf("pprof: %w", err)
		}
		if err := pprof.StartCPUProfile(file); err != nil {
			file.Close()
			s.close()
			return nil, nil, fmt.Errorf("pprof: %w", err)
		}
		s.pprofFile = file
	}
	return s.tracer, s.finish, nil
}

func (s *session) close() {
	if s.jsonlFile != nil {
		s.jsonlFile.Close()
		s.jsonlFile = nil
	}
}

// finish stops the profiler, writes the Chrome export and report sinks,
// and closes every open file. The first error wins; later steps still
// run.
func (s *session) finish() error {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.pprofFile != nil {
		pprof.StopCPUProfile()
		keep(s.pprofFile.Close())
		s.pprofFile = nil
	}
	if s.jsonlFile != nil {
		keep(s.jsonlFile.Close())
		s.jsonlFile = nil
	}
	if s.flags.ChromeOut != "" && s.tracer != nil {
		file, err := os.Create(s.flags.ChromeOut)
		if err != nil {
			keep(err)
		} else {
			keep(s.tracer.WriteChrome(file))
			keep(file.Close())
		}
	}
	if s.tracer != nil && (s.flags.Report || s.flags.ReportJSON != "") {
		rep := s.tracer.Report()
		if s.flags.Report {
			fmt.Fprint(os.Stderr, rep.Text())
		}
		if s.flags.ReportJSON != "" {
			data, err := rep.JSON()
			if err != nil {
				keep(err)
			} else {
				keep(os.WriteFile(s.flags.ReportJSON, append(data, '\n'), 0o644))
			}
		}
	}
	return firstErr
}
