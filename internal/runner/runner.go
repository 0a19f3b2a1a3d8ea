// Package runner executes one complete SLAM verification run — the
// checkpoint-aware pipeline invocation plus the canonical result
// rendering — behind an io.Writer pair. It is the single place the
// "RESULT: ..." output format lives: cmd/slam drives it for terminal
// use, and the predabsd worker (internal/server) drives it for daemon
// jobs, which is what makes a daemon verdict byte-identical to a direct
// slam run over the same inputs. The checkpoint compatibility key is
// built here too (Tool: "slam"), so a journal written by a daemon
// worker warm-starts a later slam invocation and vice versa.
package runner

import (
	"fmt"
	"io"

	"predabs"
	"predabs/internal/checkpoint"
	"predabs/internal/obs"
)

// Input is one verification run's full configuration: the program text
// (already read — attribution stays with SourceName), the optional
// specification, and the knobs cmd/slam exposes as flags.
type Input struct {
	// SourceName attributes diagnostics and -explain output (the
	// file:line style errors); it is never read from disk.
	SourceName string
	// Source is the MiniC program text.
	Source string
	// Spec is the SLIC specification text; consulted only when HasSpec.
	Spec string
	// HasSpec selects the specification workflow (VerifySpecCtx) over
	// the assert-checking workflow (VerifyCtx). An empty Spec with
	// HasSpec set is still the specification workflow.
	HasSpec bool
	// Entry is the entry procedure.
	Entry string
	// MaxIters bounds the refinement iterations (cmd/slam -maxiters).
	MaxIters int
	// Jobs sizes the cube-search worker pool (cmd/slam -j).
	Jobs int
	// Engine selects the abstraction engine (cmd/slam -abs-engine):
	// predabs.EngineCubes, predabs.EngineModels, or "" for the default
	// cube engine. Unlike Jobs it changes what the run computes along the
	// way (prover cache contents, budget degradations), so it feeds the
	// checkpoint compatibility key.
	Engine string
	// Stats, Explain and Verbose mirror the slam flags of the same name.
	Stats   bool
	Explain bool
	Verbose bool
	// Progress receives CEGAR iteration-boundary heartbeats (see
	// predabs.VerifyConfig.Progress). The predabsd worker uses it to
	// append durable progress records to its job's event log; nil
	// disables the hook at zero cost.
	Progress func(iter, preds int, queries int64, engine string)
	// Obs carries the shared observability/limit/checkpoint flag values.
	// Nil means all defaults (no tracing, no limits, no state dir).
	Obs *obs.Flags
}

// Exit codes of a run, matching cmd/slam's contract.
const (
	ExitVerified = 0
	ExitError    = 1 // error found, or a fatal input/internal error
	ExitUnknown  = 2
)

// Run executes the pipeline for in, rendering the canonical slam output
// to stdout and diagnostics to stderr. It returns the process exit code
// and the outcome label ("verified", "error-found", "unknown"; "" when
// the run failed before producing a verdict). Panics anywhere in the
// run are converted to an "internal error" diagnostic and ExitError —
// Run never lets one escape to the caller.
func Run(in Input, stdout, stderr io.Writer) (code int, outcome string) {
	// finish is assigned once tracing starts and is idempotent, so the
	// recovery path can flush and close the trace/report artifacts even
	// when the panic strikes after the normal finish already ran —
	// without it a recovered panic leaves trace.jsonl unclosed and
	// report.json unwritten for the attempt.
	var finish func() error
	defer func() {
		if p := recover(); p != nil {
			if finish != nil {
				finish()
			}
			fmt.Fprintf(stderr, "slam: internal error: %v\n", p)
			code, outcome = ExitError, ""
		}
	}()
	flags := in.Obs
	if flags == nil {
		flags = &obs.Flags{}
	}
	tracer, finishSession, err := flags.Start()
	if err != nil {
		return fatal(stderr, err), ""
	}
	finished := false
	finish = func() error {
		if finished {
			return nil
		}
		finished = true
		return finishSession()
	}
	if !predabs.ValidEngine(in.Engine) {
		finish()
		return fatal(stderr, fmt.Errorf("unknown -abs-engine %q (want %q or %q)",
			in.Engine, predabs.EngineCubes, predabs.EngineModels)), ""
	}
	engine := in.Engine
	if engine == "" {
		engine = predabs.EngineCubes
	}
	cfg := predabs.DefaultVerifyConfig()
	cfg.MaxIterations = in.MaxIters
	cfg.Opts.Jobs = in.Jobs
	cfg.Opts.Engine = engine
	cfg.Tracer = tracer
	cfg.Limits = flags.Limits()
	cfg.Progress = in.Progress
	if in.Verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	// The compatibility key covers everything that changes what the run
	// computes. -j and the wall-clock limits are deliberately absent:
	// results are worker-count-independent, and wall-clock degradations
	// are never persisted.
	key := checkpoint.CompatKey{
		Tool: "slam", Version: predabs.Version,
		Program: in.Source, Spec: in.Spec, Entry: in.Entry,
		MaxCubeLen:  cfg.Opts.MaxCubeLen,
		CubeBudget:  int64(flags.CubeBudget),
		BDDMaxNodes: int64(flags.BDDMaxNodes),
		AbsEngine:   engine,
	}
	ckpt, err := flags.OpenCheckpointW(stderr, key, tracer)
	if err != nil {
		finish()
		return fatal(stderr, err), ""
	}
	defer ckpt.Close()
	cfg.Checkpoint = ckpt
	ctx, cancel := flags.Context()
	defer cancel()
	pipelineHook()

	var res *predabs.VerifyResult
	if in.HasSpec {
		res, err = predabs.VerifySpecCtx(ctx, in.Source, in.Spec, in.Entry, cfg)
	} else {
		res, err = predabs.VerifyCtx(ctx, in.Source, in.Entry, cfg)
	}
	if err != nil {
		finish()
		fmt.Fprintf(stderr, "slam: %s: %v\n", in.SourceName, err)
		return ExitError, ""
	}
	if err := ckpt.Err(); err != nil {
		fmt.Fprintln(stderr, "slam: warning: checkpointing disabled:", err)
	}
	if err := finish(); err != nil {
		fmt.Fprintln(stderr, "slam:", err)
	}

	fmt.Fprintf(stdout, "RESULT: %s (iterations: %d, predicates: %d, prover calls: %d)\n",
		res.Outcome, res.Iterations, res.PredCount, res.ProverCalls)
	if in.Stats {
		fmt.Fprintf(stderr, "prover calls: %d\nprover cache hits: %d\ntheory solver time: %v\n",
			res.ProverCalls, res.CacheHits, res.SolverTime)
		obs.WriteCubeStats(stderr, res.CubeStats)
		obs.WriteProverStats(stderr, res.Stats)
		fmt.Fprintf(stderr, "stage abstraction (c2bp): %v\nstage model checking (bebop): %v\nstage predicate discovery (newton): %v\n",
			res.AbstractTime, res.CheckTime, res.NewtonTime)
		fmt.Fprintf(stderr, "bebop iterations: %d\n", res.CheckIterations)
		obs.WriteProcIterations(stderr, res.CheckIterationsByProc)
	}
	switch res.Outcome {
	case predabs.ErrorFound:
		if in.Explain {
			fmt.Fprintln(stdout, "error path (annotated):")
			for _, e := range res.Explain(in.SourceName) {
				fmt.Fprintln(stdout, "  "+e)
			}
		} else {
			fmt.Fprintln(stdout, "error path:")
			for _, e := range res.ErrorTrace {
				fmt.Fprintln(stdout, "  "+e)
			}
		}
		return ExitError, res.Outcome.String()
	case predabs.Unknown:
		if res.LimitName != "" {
			fmt.Fprintf(stdout, "stopped by limit %q in stage %q\n", res.LimitName, res.LimitStage)
		}
		for _, d := range res.Degradations {
			fmt.Fprintf(stderr, "slam: degraded: stage %s limit %s %s (x%d)\n", d.Stage, d.Limit, d.Detail, d.Count)
		}
		if in.Explain {
			fmt.Fprintln(stdout, "partial results:")
			for _, line := range res.ExplainUnknown() {
				fmt.Fprintln(stdout, "  "+line)
			}
		}
		return ExitUnknown, res.Outcome.String()
	}
	return ExitVerified, res.Outcome.String()
}

func fatal(w io.Writer, err error) int {
	fmt.Fprintln(w, "slam:", err)
	return ExitError
}

// pipelineHook is a test seam: the runner tests override it to inject a
// panic inside the pipeline section of Run.
var pipelineHook = func() {}
