package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// workerLoop is one worker slot: it dequeues jobs until Shutdown.
func (s *Server) workerLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case j := <-s.queue:
			s.supervise(j)
			// A drained slot exits promptly even if more jobs are
			// queued; they stay ledgered and resume on the next start.
			select {
			case <-s.quit:
				return
			default:
			}
		}
	}
}

// supervise owns one job start to finish on a busy worker slot. The
// job's terminal state is published last, after the slot is released,
// so a client that sees the job finished reads settled metrics.
func (s *Server) supervise(j *job) {
	s.met.workersBusy.Inc()
	publish := s.runJob(j)
	s.met.workersBusy.Dec()
	if publish != nil {
		publish()
	}
}

// runJob adopts an orphaned result if a previous daemon died between
// the worker finishing and the ledger recording it, then runs attempts
// under the hard deadline until a result appears or the retry budget
// runs out. Every attempt resumes from the job's checkpoint journal, so
// progress is monotone across SIGKILLs and daemon restarts. It returns
// the publication of the job's terminal state, or nil when the job stays
// pending.
func (s *Server) runJob(j *job) (publish func()) {
	if res, ok := readResult(j.dir, j.hash); ok {
		s.adopted.Add(1)
		s.met.adopted.Inc()
		s.event(j, JobEvent{Type: EventAdopt, Detail: fmt.Sprintf("exit %d", res.ExitCode)})
		s.cfg.Logf("predabsd: %s: adopting orphaned result (exit %d)", j.id, res.ExitCode)
		return s.finishDone(j, res)
	}
	maxAttempts := s.cfg.Retries + 1
	for {
		j.mu.Lock()
		attempt := j.attempts + 1
		j.mu.Unlock()
		if attempt > maxAttempts {
			return s.finishFailed(j, fmt.Sprintf("retry budget exhausted after %d attempts", attempt-1))
		}
		if attempt > 1 {
			s.retries.Add(1)
			s.met.retries.Inc()
		}
		if err := s.ledger.Append(ledgerRecord{Type: "attempt", ID: j.id, Attempt: attempt}); err != nil {
			s.cfg.Logf("predabsd: %s: ledger attempt record: %v", j.id, err)
		}
		j.mu.Lock()
		j.attempts = attempt
		j.state = StateRunning
		j.mu.Unlock()
		s.event(j, JobEvent{Type: EventState, State: StateRunning, Attempt: attempt})

		res, failure := s.runAttempt(j, attempt)
		if res != nil {
			return s.finishDone(j, *res)
		}
		if s.runCtx.Err() != nil {
			// Shutdown SIGKILLed this attempt before it could finish.
			// Refund it in the ledger and leave the job pending instead
			// of durably failing what may have been its final budgeted
			// attempt: the next daemon start re-runs it. At most one
			// refund per job per daemon lifetime, so the budget stays
			// bounded even across repeated drains.
			if err := s.ledger.Append(ledgerRecord{Type: "preempt", ID: j.id, Attempt: attempt}); err != nil {
				s.cfg.Logf("predabsd: %s: ledger preempt record: %v", j.id, err)
			}
			j.mu.Lock()
			j.attempts = attempt - 1
			j.state = StateQueued
			j.mu.Unlock()
			s.event(j, JobEvent{Type: EventState, State: StateQueued, Attempt: attempt,
				Detail: "attempt preempted by shutdown"})
			s.cfg.Logf("predabsd: %s: attempt %d preempted by shutdown; job stays journaled for resume", j.id, attempt)
			return nil
		}
		s.cfg.Logf("predabsd: %s: attempt %d/%d failed: %s", j.id, attempt, maxAttempts, failure)
		if attempt >= maxAttempts {
			return s.finishFailed(j, fmt.Sprintf("retry budget exhausted after %d attempts (last: %s)", attempt, failure))
		}
		j.mu.Lock()
		j.state = StateRetrying
		j.mu.Unlock()
		s.event(j, JobEvent{Type: EventState, State: StateRetrying, Attempt: attempt, Detail: failure})
		if !s.backoff(attempt) {
			// Shutdown interrupted the backoff: leave the job pending in
			// the ledger; the next daemon start re-enqueues and resumes it.
			return nil
		}
	}
}

// runAttempt executes one worker subprocess for j. A complete result
// file is the only success signal; nil plus a reason means retry.
func (s *Server) runAttempt(j *job, attempt int) (*WorkerResult, string) {
	// Adoption runs before the first attempt and completed attempts end
	// supervision, so anything still here is a hash-mismatched leftover
	// from a recycled job directory; removing it keeps the "result file
	// == this attempt finished" invariant unconditional.
	os.Remove(filepath.Join(j.dir, resultFile))

	timeout := s.cfg.AttemptTimeout
	if j.spec.AttemptTimeoutMS > 0 {
		timeout = time.Duration(j.spec.AttemptTimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(s.runCtx, timeout)
	defer cancel()

	// CommandContext's default Cancel is Process.Kill — SIGKILL, the
	// same signal an OOM kill delivers, so the checkpoint journal must
	// absorb it mid-fsync. That is the isolation contract: the worker
	// can die arbitrarily hard and the daemon only ever observes a
	// missing result file.
	cmd := exec.CommandContext(ctx, s.cfg.WorkerBin, "-worker", "-dir", j.dir)
	// The trace context rides the environment: the worker stamps its
	// progress events (and any future worker-side records) with the job
	// and attempt the supervisor assigned. Job-injected env comes last so
	// the chaos suite's overrides still win.
	cmd.Env = append(os.Environ(),
		JobIDEnv+"="+j.id,
		AttemptEnv+"="+strconv.Itoa(attempt))
	if s.cfg.EventsMaxBytes > 0 {
		// The worker appends its own progress heartbeats; it must honour
		// the same retention cap or its appends would regrow a log the
		// supervisor just rotated.
		cmd.Env = append(cmd.Env, EventsMaxEnv+"="+strconv.FormatInt(s.cfg.EventsMaxBytes, 10))
	}
	cmd.Env = append(cmd.Env, j.spec.Env...)
	logf, err := os.OpenFile(filepath.Join(j.dir, workerLogFile),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err == nil {
		fmt.Fprintf(logf, "--- attempt %d ---\n", attempt)
		cmd.Stdout, cmd.Stderr = logf, logf
		defer logf.Close()
	}
	// The spawn event is the last daemon-side append before the worker
	// owns the log; its timestamp doubles as the attempt's epoch when the
	// merged Chrome trace rebases worker spans onto the job timeline.
	s.event(j, JobEvent{Type: EventSpawn, Attempt: attempt})
	start := time.Now()
	runErr := cmd.Run()
	s.met.attemptSeconds.Observe(time.Since(start).Seconds())

	if res, ok := readResult(j.dir, j.hash); ok {
		return &res, ""
	}
	// A failed attempt's trace is archived under its attempt number so a
	// retry's fresh trace.jsonl does not overwrite it; the merged Chrome
	// export renders each archive as its own set of lanes.
	if s.cfg.Artifacts {
		os.Rename(filepath.Join(j.dir, traceFile), filepath.Join(j.dir, attemptTraceFile(attempt)))
	}
	switch {
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		s.kills.Add(1)
		s.met.kills.Inc()
		s.event(j, JobEvent{Type: EventKill, Attempt: attempt,
			Detail: fmt.Sprintf("attempt deadline %v", timeout)})
		return nil, fmt.Sprintf("SIGKILLed on the %v attempt deadline", timeout)
	case s.runCtx.Err() != nil:
		return nil, "worker killed by daemon shutdown"
	case runErr != nil:
		return nil, fmt.Sprintf("worker died without a result (%v)", runErr)
	default:
		return nil, "worker exited without writing a result"
	}
}

// backoff sleeps the exponential-with-jitter delay before the next
// attempt; false means shutdown interrupted the wait. The sleep is
// visible while it lasts: the retries-in-backoff gauge (mirrored into
// /statz and /metrics) counts supervisors parked here, so a fleet
// dashboard can tell "quiet because idle" from "quiet because every
// slot is waiting out a crash loop".
func (s *Server) backoff(attempt int) bool {
	d := s.cfg.RetryBase << (attempt - 1)
	if d > s.cfg.RetryMax || d <= 0 {
		d = s.cfg.RetryMax
	}
	// Full ±50% jitter decorrelates retry stampedes after a shared
	// cause (e.g. memory pressure killing several workers at once).
	d = d/2 + time.Duration(rand.Int63n(int64(d)))
	s.inBackoff.Add(1)
	s.met.retriesInBackoff.Inc()
	s.met.backoffSleeps.Inc()
	start := time.Now()
	defer func() {
		s.inBackoff.Add(-1)
		s.met.retriesInBackoff.Dec()
		s.met.backoffSeconds.Observe(time.Since(start).Seconds())
	}()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.quit:
		return false
	}
}

// finishDone records a job's result and returns the publication of its
// done state.
func (s *Server) finishDone(j *job, res WorkerResult) (publish func()) {
	j.mu.Lock()
	attempts := j.attempts
	j.mu.Unlock()
	// Durable records and counters first, in-memory state last: a client
	// that observes a terminal status can rely on the event stream
	// already ending with the matching record, and on /metrics counting
	// the job.
	if err := s.ledger.Append(ledgerRecord{Type: "done", ID: j.id, State: StateDone, Exit: res.ExitCode, Outcome: res.Outcome}); err != nil {
		s.cfg.Logf("predabsd: %s: ledger done record: %v", j.id, err)
	}
	s.event(j, JobEvent{Type: EventState, State: StateDone, Attempt: attempts,
		Detail: res.Outcome})
	s.completed.Add(1)
	s.met.completed.Inc()
	s.met.verdict(res.Outcome).Inc()
	s.foldRunReport(j)
	s.cfg.Logf("predabsd: %s: done after %d attempt(s): exit %d outcome %q",
		j.id, attempts, res.ExitCode, res.Outcome)
	return func() {
		j.mu.Lock()
		j.state = StateDone
		j.result = &res
		j.errmsg = ""
		j.mu.Unlock()
	}
}

// finishFailed marks a job out of retry budget. The daemon never
// invents a verdict: the job's outcome is "unknown", with the reason in
// the status error — a retried job may report Unknown, never Verified.
// It returns the publication of the failed state.
func (s *Server) finishFailed(j *job, detail string) (publish func()) {
	j.mu.Lock()
	attempts := j.attempts
	j.mu.Unlock()
	// Same ordering as finishDone: durable records before the terminal
	// status becomes observable.
	if err := s.ledger.Append(ledgerRecord{Type: "done", ID: j.id, State: StateFailed, Outcome: "unknown", Detail: detail}); err != nil {
		s.cfg.Logf("predabsd: %s: ledger done record: %v", j.id, err)
	}
	s.event(j, JobEvent{Type: EventState, State: StateFailed, Attempt: attempts,
		Detail: detail})
	s.failed.Add(1)
	s.met.failed.Inc()
	s.met.verdict("unknown").Inc()
	s.cfg.Logf("predabsd: %s: failed: %s", j.id, detail)
	return func() {
		j.mu.Lock()
		j.state = StateFailed
		j.errmsg = detail
		j.mu.Unlock()
	}
}

// event appends one record to j's durable event log; failures are
// diagnostics, never supervision failures (the event log observes the
// job, it does not gate it).
func (s *Server) event(j *job, ev JobEvent) {
	if _, err := appendJobEventFS(s.cfg.FS, j.dir, s.cfg.EventsMaxBytes, ev); err != nil {
		s.cfg.Logf("predabsd: %s: event log: %v", j.id, err)
	}
}

// foldRunReport folds the completed job's report.json counters — the
// per-run prover/session/abstraction work the worker measured — into
// the daemon's metrics, giving /metrics fleet-cumulative totals of what
// -stats shows per run. Best-effort: no artifacts, no fold.
func (s *Server) foldRunReport(j *job) {
	if !s.cfg.Artifacts || s.met.runProverCalls == nil {
		return
	}
	raw, err := os.ReadFile(filepath.Join(j.dir, reportFile))
	if err != nil {
		return
	}
	var rep struct {
		Iterations    int `json:"iterations"`
		Predicates    int `json:"predicates"`
		ProverCalls   int `json:"prover_calls"`
		CacheHits     int `json:"cache_hits"`
		Sessions      int `json:"sessions"`
		SessionChecks int `json:"session_checks"`
	}
	if json.Unmarshal(raw, &rep) != nil {
		return
	}
	s.met.runIterations.Add(int64(rep.Iterations))
	s.met.runPredicates.Add(int64(rep.Predicates))
	s.met.runProverCalls.Add(int64(rep.ProverCalls))
	s.met.runCacheHits.Add(int64(rep.CacheHits))
	s.met.runSessions.Add(int64(rep.Sessions))
	s.met.runSessionChecks.Add(int64(rep.SessionChecks))
}
