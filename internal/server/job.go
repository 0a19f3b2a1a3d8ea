// Package server implements predabsd: a supervised verification
// service that accepts SLAM jobs over HTTP/JSON, admits them through a
// bounded queue with load shedding, and executes each in an isolated
// re-exec'd worker subprocess so a panicking, OOM-killed or wedged job
// can never take down the service or corrupt a sibling.
//
// # Supervision tree
//
//	Server ── workerLoop ×N ── supervise(job) ── worker subprocess
//
// A supervisor owns each running job: per-attempt hard deadline (SIGKILL
// on overrun), exponential backoff with jitter between attempts, and a
// bounded retry budget that persists across daemon restarts. Every
// worker runs with a per-job checkpoint state directory (the PR-4
// -state journals), so a retried attempt resumes from the last
// committed CEGAR iteration instead of starting over — and the resumed
// verdict is byte-identical to an uninterrupted run, the property the
// serve-chaos suite in internal/faultinject pins.
//
// # Soundness under retries
//
// The daemon never synthesizes a verdict. A job is "done" exactly when
// a worker attempt produced a complete result file (written atomically:
// temp file + rename); anything else — SIGKILL, panic, torn journal,
// daemon restart — either retries from the journal or, when the retry
// budget is exhausted, fails the job with outcome "unknown". A retried
// or degraded job may therefore report Unknown, never
// Verified-when-buggy.
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"predabs"
	"predabs/internal/obs"
	"predabs/internal/runner"
)

// JobSpec is the submitted verification job: the program and (optional)
// specification text plus the per-job limits. All limits mirror the
// slam CLI flags; zero means the flag's default. The daemon stores the
// normalized spec as job.json inside the job directory, which is the
// worker subprocess's only input.
type JobSpec struct {
	// Source is the MiniC program text (required).
	Source string `json:"source"`
	// Spec is the SLIC specification text; empty selects the
	// assert-checking workflow.
	Spec string `json:"spec,omitempty"`
	// Entry is the entry procedure (default "main").
	Entry string `json:"entry,omitempty"`
	// MaxIters bounds refinement iterations (default 10).
	MaxIters int `json:"max_iters,omitempty"`
	// AbsEngine selects the abstraction engine ("cubes" or "models";
	// empty means "cubes"). It participates in the spec hash, so changing
	// it changes job identity — a recycled job directory can never serve
	// one engine's result for the other's request.
	AbsEngine string `json:"abs_engine,omitempty"`
	// Explain renders found error paths as annotated source traces.
	Explain bool `json:"explain,omitempty"`

	// Soft limits: the worker degrades soundly when these bind.
	TimeoutMS      int64 `json:"timeout_ms,omitempty"`
	QueryTimeoutMS int64 `json:"query_timeout_ms,omitempty"`
	CubeBudget     int   `json:"cube_budget,omitempty"`
	BDDMaxNodes    int   `json:"bdd_max_nodes,omitempty"`

	// AttemptTimeoutMS is the hard per-attempt wall clock enforced by
	// the supervisor with SIGKILL (0 = the daemon's -job-timeout).
	AttemptTimeoutMS int64 `json:"attempt_timeout_ms,omitempty"`

	// Env appends environment variables ("K=V") to the worker process.
	// Only honoured when the daemon runs with -allow-job-env; the chaos
	// suite uses it to schedule deterministic worker crashes.
	Env []string `json:"env,omitempty"`

	// Artifacts is set by the daemon at admission (from its -artifacts
	// flag): the worker then writes trace.jsonl and report.json next to
	// the result.
	Artifacts bool `json:"artifacts,omitempty"`
}

// Normalize applies defaults and rejects nonsensical fields. Admission
// — the single node's and the fleet frontend's — normalizes before
// hashing, so equal submissions share one spec hash however sparsely
// they were spelled.
func (s *JobSpec) Normalize() error {
	if s.Source == "" {
		return fmt.Errorf("source: must not be empty")
	}
	if s.Entry == "" {
		s.Entry = "main"
	}
	if s.MaxIters == 0 {
		s.MaxIters = 10
	}
	if s.MaxIters < 0 {
		return fmt.Errorf("max_iters: %d: must be positive", s.MaxIters)
	}
	if !predabs.ValidEngine(s.AbsEngine) {
		return fmt.Errorf("abs_engine: %q: must be %q or %q",
			s.AbsEngine, predabs.EngineCubes, predabs.EngineModels)
	}
	for name, v := range map[string]int64{
		"timeout_ms":         s.TimeoutMS,
		"query_timeout_ms":   s.QueryTimeoutMS,
		"cube_budget":        int64(s.CubeBudget),
		"bdd_max_nodes":      int64(s.BDDMaxNodes),
		"attempt_timeout_ms": s.AttemptTimeoutMS,
	} {
		if v < 0 {
			return fmt.Errorf("%s: %d: must not be negative", name, v)
		}
	}
	return nil
}

// WorkerResult is the worker's output contract, written atomically as
// result.json in the job directory. Its presence is the one and only
// signal that an attempt completed: a SIGKILLed or crashed worker
// leaves no result file, so the supervisor retries from the journal.
type WorkerResult struct {
	// SpecHash fingerprints the job spec this result was computed for.
	// Job IDs recycle when the ledger is quarantined or removed while
	// old job directories survive, so a result is only ever credited to
	// a job whose spec hashes identically — the daemon must never report
	// a previous occupant's verdict for a different program.
	SpecHash string `json:"spec_hash"`
	// ExitCode follows the slam CLI contract: 0 verified, 1 error found
	// (or a fatal input error), 2 unknown.
	ExitCode int `json:"exit_code"`
	// Outcome is "verified", "error-found" or "unknown"; "" when the
	// run failed before producing a verdict (e.g. a parse error).
	Outcome string `json:"outcome"`
	// Stdout is the run's canonical output, byte-identical to a direct
	// slam invocation over the same inputs.
	Stdout string `json:"stdout"`
}

// Job-directory file names.
const (
	jobSpecFile   = "job.json"
	resultFile    = "result.json"
	stateDirName  = "state"
	traceFile     = "trace.jsonl"
	reportFile    = "report.json"
	workerLogFile = "worker.log"
)

// Trace-context environment: the supervisor stamps every worker
// subprocess with the job and attempt it runs, so worker-side records —
// progress events in the job event log, spans in the merged Chrome
// trace — join the daemon's supervision timeline without guessing.
const (
	// JobIDEnv carries the job ID into the worker.
	JobIDEnv = "PREDABSD_JOB_ID"
	// AttemptEnv carries the 1-based attempt number into the worker.
	AttemptEnv = "PREDABSD_ATTEMPT"
	// EventsMaxEnv carries the daemon's -events-max-bytes retention cap
	// into the worker, whose progress heartbeats append to the same
	// event log the supervisor rotates.
	EventsMaxEnv = "PREDABSD_EVENTS_MAX_BYTES"
)

// HangEnv names the test-only environment variable that wedges a
// worker before its run starts (injected per job via JobSpec.Env under
// -allow-job-env). The leak and chaos suites use it to exercise the
// supervisor's deadline-SIGKILL path deterministically — a wedged
// worker is indistinguishable from a diverging CEGAR job.
const HangEnv = "PREDABSD_WORKER_HANG"

// RunWorker is the worker-subprocess entry point (predabsd -worker
// -dir <jobdir>): it reads job.json, runs the verification with the
// job's checkpoint state directory (resuming any journaled progress),
// writes result.json atomically and exits with the run's exit code.
// Diagnostics go to stderr, which the supervisor routes to worker.log.
func RunWorker(dir string, stderr io.Writer) int {
	if os.Getenv(HangEnv) != "" {
		select {} // wedge until the supervisor's SIGKILL
	}
	raw, err := os.ReadFile(filepath.Join(dir, jobSpecFile))
	if err != nil {
		fmt.Fprintln(stderr, "predabsd worker:", err)
		return 1
	}
	var spec JobSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(stderr, "predabsd worker: %s: %v\n", jobSpecFile, err)
		return 1
	}
	flags := &obs.Flags{
		Timeout:      time.Duration(spec.TimeoutMS) * time.Millisecond,
		QueryTimeout: time.Duration(spec.QueryTimeoutMS) * time.Millisecond,
		CubeBudget:   spec.CubeBudget,
		BDDMaxNodes:  spec.BDDMaxNodes,
		State:        filepath.Join(dir, stateDirName),
	}
	if spec.Artifacts {
		flags.TraceOut = filepath.Join(dir, traceFile)
		flags.ReportJSON = filepath.Join(dir, reportFile)
	}
	// With a supervisor-stamped trace context the worker appends CEGAR
	// progress heartbeats to the job's durable event log. The temporal
	// handoff makes this safe: the supervisor never appends while the
	// worker runs. Append failures are diagnostics, never run failures.
	var progress func(iter, preds int, queries int64, engine string)
	if attempt, _ := strconv.Atoi(os.Getenv(AttemptEnv)); attempt > 0 {
		eventsMax, _ := strconv.ParseInt(os.Getenv(EventsMaxEnv), 10, 64)
		progress = func(iter, preds int, queries int64, engine string) {
			_, err := appendJobEventFS(nil, dir, eventsMax, JobEvent{
				Type: EventProgress, Attempt: attempt,
				Iter: iter, Preds: preds, Queries: queries, Engine: engine,
			})
			if err != nil {
				fmt.Fprintln(stderr, "predabsd worker: event log:", err)
			}
		}
	}
	var stdout bytes.Buffer
	code, outcome := runner.Run(runner.Input{
		SourceName: "job.c",
		Source:     spec.Source,
		Spec:       spec.Spec,
		HasSpec:    spec.Spec != "",
		Entry:      spec.Entry,
		MaxIters:   spec.MaxIters,
		Engine:     spec.AbsEngine,
		Explain:    spec.Explain,
		Progress:   progress,
		Obs:        flags,
	}, &stdout, stderr)
	res := WorkerResult{SpecHash: SpecHash(spec), ExitCode: code, Outcome: outcome, Stdout: stdout.String()}
	if err := writeFileAtomic(filepath.Join(dir, resultFile), res); err != nil {
		// No result file means the supervisor will retry; report why.
		fmt.Fprintln(stderr, "predabsd worker: writing result:", err)
		return 1
	}
	return code
}

// writeFileAtomic marshals v and renames a synced temp file over path,
// so a crash mid-write can never leave a half-readable result.
func writeFileAtomic(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-result-")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// readResult loads a complete worker result bound to the given spec
// hash from the job directory; ok is false when no readable result
// exists or the result's spec hash does not match — a stale file left
// by a previous occupant of a recycled job directory is treated as no
// result at all.
func readResult(dir string, hash string) (WorkerResult, bool) {
	raw, err := os.ReadFile(filepath.Join(dir, resultFile))
	if err != nil {
		return WorkerResult{}, false
	}
	var res WorkerResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return WorkerResult{}, false
	}
	if res.SpecHash != hash {
		return WorkerResult{}, false
	}
	return res, true
}

// SpecHash fingerprints a normalized job spec: the SHA-256 content
// address of the verification work it describes. The daemon and the
// worker both derive it from the same marshaling of JobSpec, so the
// hash a worker stamps into its result matches the admitting daemon's
// — and a daemon restarted from the ledger recomputes the same value.
// The fleet frontend keys its content-addressed dedup on it. Artifacts
// is excluded: it is a server-side output toggle the admitting node
// sets, not part of the job's identity, and including it would make a
// frontend's hash disagree with an artifacts-enabled backend's.
func SpecHash(spec JobSpec) string {
	spec.Artifacts = false
	data, err := json.Marshal(spec)
	if err != nil {
		// JobSpec is plain data; Marshal cannot fail on it.
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// attemptTraceFile names the archived trace of a finished (failed)
// attempt; the live attempt always writes traceFile, which the
// supervisor renames here before the retry so the merged Chrome trace
// can render every attempt as its own lane.
func attemptTraceFile(attempt int) string {
	return fmt.Sprintf("trace-attempt-%d.jsonl", attempt)
}

// scrubJobDir removes every artifact a previous occupant may have left
// in a recycled job directory (result, worker log, traces, report,
// event log, checkpoint state), so a freshly admitted job can neither
// adopt nor resume from — nor report events of — another program's
// output.
func scrubJobDir(dir string) error {
	for _, name := range []string{resultFile, workerLogFile, traceFile, reportFile, EventsName} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	archived, err := filepath.Glob(filepath.Join(dir, "trace-attempt-*.jsonl"))
	if err == nil {
		for _, path := range archived {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return os.RemoveAll(filepath.Join(dir, stateDirName))
}
