package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"predabs"
	"predabs/internal/checkpoint"
	"predabs/internal/metrics"
	"predabs/internal/runner"
)

// Job lifecycle states, as reported by the status API.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateRetrying = "retrying" // in the backoff window between attempts
	StateDone     = "done"     // a worker produced a complete result
	StateFailed   = "failed"   // retry budget exhausted; outcome unknown
)

// Config configures a Server. Zero fields take the documented defaults.
type Config struct {
	// DataDir holds the ledger and one directory per job (required).
	DataDir string
	// WorkerBin is the predabsd binary to re-exec as workers (required;
	// the daemon passes its own os.Executable()).
	WorkerBin string
	// QueueCap bounds the admission queue; submissions beyond it are
	// shed with 503 (default 64).
	QueueCap int
	// Workers is the number of concurrent worker slots (default 2).
	Workers int
	// AttemptTimeout is the default hard per-attempt deadline; an
	// overrunning worker is SIGKILLed and retried (default 60s).
	AttemptTimeout time.Duration
	// Retries is the per-job retry budget: a job gets at most
	// Retries+1 attempts, counted durably across daemon restarts
	// (default 2).
	Retries int
	// RetryBase/RetryMax shape the exponential backoff between
	// attempts: base·2^(attempt-1) with ±50% jitter, capped at max
	// (defaults 250ms / 10s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Artifacts makes every worker write trace.jsonl and report.json
	// job artifacts.
	Artifacts bool
	// AllowJobEnv honours JobSpec.Env (worker environment injection).
	// Leave it off outside chaos testing.
	AllowJobEnv bool
	// Metrics receives the daemon's instrument registrations and backs
	// GET /metrics. Nil disables metrics: every instrument update then
	// no-ops at zero allocations (the nil-tracer contract), and /metrics
	// serves an empty exposition.
	Metrics *metrics.Registry
	// FS is the filesystem seam under the ledger and the per-job event
	// logs (nil = the real filesystem). The disk-chaos suite threads a
	// fault-injecting implementation through it.
	FS checkpoint.FS
	// LedgerSnapshotBytes makes restart-replay fold terminal jobs into
	// one snapshot record when the ledger exceeds this many bytes
	// (0 = never fold; the ledger only grows).
	LedgerSnapshotBytes int64
	// EventsMaxBytes caps each job's event log: above it the oldest
	// events rotate out behind an explicit truncation record that
	// preserves the resumable ?after=N contract (0 = unbounded).
	EventsMaxBytes int64
	// Logf receives daemon log lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c *Config) fill() error {
	if c.DataDir == "" {
		return errors.New("server: DataDir is required")
	}
	if c.WorkerBin == "" {
		return errors.New("server: WorkerBin is required")
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 60 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 250 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 10 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// Counters are the daemon's monotonic health counters, exposed at
// /statz and logged at shutdown.
type Counters struct {
	Submitted int64 `json:"submitted"` // jobs admitted
	Shed      int64 `json:"shed"`      // submissions rejected on a full queue
	Completed int64 `json:"completed"` // jobs finished with a worker result
	Failed    int64 `json:"failed"`    // jobs failed on retry exhaustion
	Retries   int64 `json:"retries"`   // attempts beyond each job's first
	Kills     int64 `json:"kills"`     // workers SIGKILLed on the attempt deadline
	Resumed   int64 `json:"resumed"`   // jobs re-enqueued from the ledger at startup
	Adopted   int64 `json:"adopted"`   // orphaned complete results adopted at supervise
}

// job is the in-memory runtime state of one admitted job. hash is the
// spec's content address, carried explicitly because a job replayed
// from a ledger snapshot record keeps its hash but not its spec text.
type job struct {
	id   string
	dir  string
	hash string

	mu       sync.Mutex
	spec     JobSpec
	state    string
	attempts int
	resumed  bool // re-enqueued from the ledger after a daemon restart
	result   *WorkerResult
	errmsg   string
}

// JobStatus is the status API's JSON shape, shared by the single-node
// daemon and the fleet frontend.
type JobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Attempts int    `json:"attempts"`
	Resumed  bool   `json:"resumed,omitempty"`
	ExitCode int    `json:"exit_code,omitempty"`
	Outcome  string `json:"outcome,omitempty"`
	Stdout   string `json:"stdout,omitempty"`
	Error    string `json:"error,omitempty"`
	// SpecHash is the content address of the job's normalized spec (see
	// SpecHash). The fleet frontend uses it to verify that a backend job
	// it re-adopts after a restart still runs the work it dispatched.
	SpecHash string `json:"spec_hash,omitempty"`
	// Backend is the backend node a fleet frontend dispatched the job
	// to; single-node daemons leave it empty.
	Backend string `json:"backend,omitempty"`
	// Progress is the last CEGAR heartbeat the worker logged, when any;
	// populated only by GET /jobs/{id} (it reads the job's event log).
	Progress *ProgressInfo `json:"progress,omitempty"`
}

// ProgressInfo summarizes the most recent worker progress event: how far
// the current (or final) attempt's CEGAR loop has gotten.
type ProgressInfo struct {
	Attempt int    `json:"attempt"`
	Iter    int    `json:"iter"`
	Preds   int    `json:"preds"`
	Queries int64  `json:"queries"`
	Engine  string `json:"engine"`
	Seq     uint64 `json:"seq"` // event-log sequence of this heartbeat
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{ID: j.id, State: j.state, Attempts: j.attempts, Resumed: j.resumed,
		Error: j.errmsg, SpecHash: j.hash}
	if j.result != nil {
		st.ExitCode = j.result.ExitCode
		st.Outcome = j.result.Outcome
		st.Stdout = j.result.Stdout
	} else if j.state == StateFailed {
		// Retry exhaustion never invents a verdict: the reported
		// outcome is the sound retreat.
		st.Outcome = "unknown"
		st.ExitCode = runner.ExitUnknown
	}
	return st
}

// Server is the verification daemon: admission, supervision, ledger.
type Server struct {
	cfg    Config
	ledger *ledger

	mu      sync.Mutex // guards jobs, nextSeq, and queue admission
	jobs    map[string]*job
	nextSeq int

	queue    chan *job
	quit     chan struct{} // closed on Shutdown: stop admitting and dequeuing
	runCtx   context.Context
	runStop  context.CancelFunc // hard-kills in-flight workers
	wg       sync.WaitGroup
	draining atomic.Bool
	started  atomic.Bool

	submitted, shed, completed, failed atomic.Int64
	retries, kills, resumed, adopted   atomic.Int64
	// inBackoff counts supervisors currently sleeping out a retry
	// backoff — a point-in-time gauge, not a monotone counter, kept on
	// the Server (not only the registry) so /statz reports it even with
	// metrics disabled.
	inBackoff atomic.Int64

	start time.Time
	met   serverMetrics
}

// New opens (or creates) the data directory and ledger, replays every
// journaled job, and re-enqueues the unfinished ones — their checkpoint
// journals make the resumed runs continue from the last committed CEGAR
// iteration. Call Start to begin executing.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(cfg.DataDir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	path := filepath.Join(cfg.DataDir, LedgerName)
	led, replayed, order, warnings, err := openLedger(cfg.FS, path, cfg.LedgerSnapshotBytes)
	if err != nil {
		var ce *checkpoint.CorruptError
		if !errors.As(err, &ce) {
			return nil, err
		}
		// A ledger that cannot be trusted is quarantined, never deleted:
		// availability wins, the evidence stays on disk.
		quarantine := path + ".corrupt"
		if rerr := os.Rename(path, quarantine); rerr != nil {
			return nil, fmt.Errorf("server: quarantining corrupt ledger: %w", rerr)
		}
		cfg.Logf("predabsd: %v; ledger quarantined to %s, starting fresh", err, quarantine)
		if led, replayed, order, warnings, err = openLedger(cfg.FS, path, cfg.LedgerSnapshotBytes); err != nil {
			return nil, err
		}
	}
	for _, w := range warnings {
		cfg.Logf("predabsd: ledger: %s", w)
	}
	pending := pendingOrder(replayed, order)
	queueCap := cfg.QueueCap
	if len(pending) > queueCap {
		queueCap = len(pending)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		ledger:  led,
		jobs:    make(map[string]*job, len(replayed)),
		nextSeq: nextJobSeq(replayed),
		queue:   make(chan *job, queueCap),
		quit:    make(chan struct{}),
		runCtx:  ctx,
		runStop: cancel,
		start:   time.Now(),
		met:     newServerMetrics(cfg.Metrics),
	}
	// Scrape-time gauges: queue depth reads the channel (len is safe
	// without s.mu), uptime the start timestamp.
	cfg.Metrics.GaugeFunc("predabsd_queue_depth",
		"Jobs waiting in the admission queue.",
		func() int64 { return int64(len(s.queue)) })
	cfg.Metrics.GaugeFunc("predabsd_uptime_seconds",
		"Seconds since the daemon process started.",
		func() int64 { return int64(time.Since(s.start).Seconds()) })
	// Disk-durability observability: the ledger's trusted on-disk size
	// and the sticky persistence-degraded flag (1 = an append or fsync
	// failed; the daemon keeps serving but sheds new admissions).
	cfg.Metrics.GaugeFunc("predabsd_ledger_log_bytes",
		"Trusted on-disk size of the job ledger in bytes.",
		func() int64 { return led.size() })
	cfg.Metrics.GaugeFunc("predabsd_persistence_degraded",
		"1 while the ledger is persistence-degraded (append/fsync failed), else 0.",
		func() int64 {
			if led.degradedErr() != nil {
				return 1
			}
			return 0
		})
	s.met.ledgerCompactions.Add(led.compactions)
	s.met.ledgerReclaimed.Add(led.reclaimedBytes)
	for id, rj := range replayed {
		j := &job{id: id, dir: s.jobDir(id), hash: rj.hash, spec: rj.spec, attempts: rj.attempts}
		if rj.done {
			j.state = rj.state
			j.errmsg = rj.detail
			if rj.state == StateDone {
				if res, ok := readResult(j.dir, rj.hash); ok {
					j.result = &res
				} else {
					// The verdict is durable in the ledger even when the
					// result file is gone.
					j.result = &WorkerResult{ExitCode: rj.exit, Outcome: rj.outcome}
				}
			}
		} else {
			j.state = StateQueued
			j.resumed = true
		}
		s.jobs[id] = j
	}
	for _, id := range pending {
		s.queue <- s.jobs[id]
		s.resumed.Add(1)
		s.met.resumed.Inc()
	}
	if len(pending) > 0 {
		cfg.Logf("predabsd: resuming %d in-flight job(s) from the ledger", len(pending))
	}
	return s, nil
}

// Start launches the worker slots.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.workerLoop()
	}
}

// Shutdown drains the daemon: admissions stop immediately (readyz goes
// 503), idle worker slots exit, and running attempts get until ctx's
// deadline to finish before their workers are SIGKILLed. Unfinished
// jobs stay journaled in the ledger and resume on the next start —
// their checkpoint journals preserve every committed iteration.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		close(s.quit)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.runStop() // SIGKILL in-flight workers; journals stay intact
		<-done
		err = ctx.Err()
	}
	s.runStop()
	c := s.CounterSnapshot()
	s.cfg.Logf("predabsd: shutdown: submitted=%d completed=%d failed=%d retries=%d kills=%d shed=%d resumed=%d",
		c.Submitted, c.Completed, c.Failed, c.Retries, c.Kills, c.Shed, c.Resumed)
	if cerr := s.ledger.close(); err == nil {
		err = cerr
	}
	return err
}

// CounterSnapshot returns the current counter values.
func (s *Server) CounterSnapshot() Counters {
	return Counters{
		Submitted: s.submitted.Load(),
		Shed:      s.shed.Load(),
		Completed: s.completed.Load(),
		Failed:    s.failed.Load(),
		Retries:   s.retries.Load(),
		Kills:     s.kills.Load(),
		Resumed:   s.resumed.Load(),
		Adopted:   s.adopted.Load(),
	}
}

func (s *Server) jobDir(id string) string {
	return filepath.Join(s.cfg.DataDir, "jobs", id)
}

// Handler returns the daemon's HTTP API: the shared JobAPI surface (see
// APIHandler) extended with the single-node artifact routes:
//
//	GET  /jobs/{id}/trace,/report,/log   job artifacts
//	GET  /jobs/{id}/trace.chrome         merged daemon+worker Chrome trace
func (s *Server) Handler() http.Handler {
	return APIHandler(s, APIExtras{
		Metrics: s.cfg.Metrics,
		Ready: func() error {
			if s.draining.Load() {
				return errors.New("draining")
			}
			return nil
		},
		Healthz: func() map[string]any {
			return map[string]any{
				"status":               "ok",
				"version":              predabs.Version,
				"uptime_seconds":       int64(time.Since(s.start).Seconds()),
				"persistence_degraded": s.ledger.degradedErr() != nil,
			}
		},
		Statz: func() map[string]any {
			s.mu.Lock()
			depth := len(s.queue)
			s.mu.Unlock()
			st := map[string]any{
				"counters":             s.CounterSnapshot(),
				"queue_depth":          depth,
				"queue_cap":            cap(s.queue),
				"draining":             s.draining.Load(),
				"retries_in_backoff":   s.inBackoff.Load(),
				"version":              predabs.Version,
				"uptime_seconds":       int64(time.Since(s.start).Seconds()),
				"ledger_log_bytes":     s.ledger.size(),
				"persistence_degraded": s.ledger.degradedErr() != nil,
			}
			if derr := s.ledger.degradedErr(); derr != nil {
				st["persistence_error"] = derr.Error()
			}
			return st
		},
		Extend: func(mux *http.ServeMux) {
			mux.HandleFunc("GET /jobs/{id}/trace", s.artifactHandler(traceFile))
			mux.HandleFunc("GET /jobs/{id}/report", s.artifactHandler(reportFile))
			mux.HandleFunc("GET /jobs/{id}/log", s.artifactHandler(workerLogFile))
			mux.HandleFunc("GET /jobs/{id}/trace.chrome", s.handleChromeTrace)
		},
	})
}

// maxJobBody bounds a submission body (a large driver source is well
// under a megabyte; 16 MiB leaves headroom without inviting abuse).
const maxJobBody = 16 << 20

// Admission rejections (mapped to HTTP 503 by the handler).
var (
	ErrDraining  = errors.New("server: draining")
	ErrQueueFull = errors.New("server: queue full")
	// ErrPersistDegraded sheds admissions while the ledger can no longer
	// append durably (disk full, failed fsync): a job the daemon cannot
	// journal would silently vanish on restart, so it is refused with
	// 503 + Retry-After instead. Already-admitted jobs keep running —
	// their verdicts stay sound, merely not durable.
	ErrPersistDegraded = errors.New("server: persistence degraded")
)

// Submit admits one job: validated, journaled in the ledger, enqueued.
// It returns the job ID, or ErrDraining / ErrQueueFull (load shedding)
// / a validation error. Sheds are counted here.
func (s *Server) Submit(spec JobSpec) (string, error) {
	if s.draining.Load() {
		return "", ErrDraining
	}
	if err := spec.Normalize(); err != nil {
		return "", err
	}
	if len(spec.Env) > 0 && !s.cfg.AllowJobEnv {
		return "", errors.New("env: forbidden (daemon runs without -allow-job-env)")
	}
	spec.Artifacts = s.cfg.Artifacts

	s.mu.Lock()
	// Re-check under the lock: a Shutdown that began after the load
	// above must not see this submission race its ledger close.
	if s.draining.Load() {
		s.mu.Unlock()
		return "", ErrDraining
	}
	if len(s.queue) >= cap(s.queue) {
		s.mu.Unlock()
		s.shed.Add(1)
		s.met.shed.Inc()
		return "", ErrQueueFull
	}
	if derr := s.ledger.degradedErr(); derr != nil {
		s.mu.Unlock()
		s.shed.Add(1)
		s.met.shedDegraded.Inc()
		return "", fmt.Errorf("%w: %v", ErrPersistDegraded, derr)
	}
	id := fmt.Sprintf("job-%06d", s.nextSeq)
	s.nextSeq++
	j := &job{id: id, dir: s.jobDir(id), hash: SpecHash(spec), spec: spec, state: StateQueued}
	if err := s.admit(j); err != nil {
		s.mu.Unlock()
		if errors.Is(err, errLedgerClosed) {
			return "", ErrDraining
		}
		if s.ledger.degradedErr() != nil {
			// The admit append itself hit the disk fault: the job never
			// went durable, so refuse it rather than run unjournaled work.
			s.shed.Add(1)
			s.met.shedDegraded.Inc()
			return "", fmt.Errorf("%w: %v", ErrPersistDegraded, err)
		}
		return "", err
	}
	// The admission event opens the job's durable event log. It must
	// precede the queue send: once a worker slot can dequeue the job,
	// the supervisor owns the log's write handoff, and a trailing append
	// from this goroutine would break the single-writer-at-a-time
	// invariant the open-append-close discipline relies on.
	s.event(j, JobEvent{Type: EventState, State: StateQueued})
	s.jobs[id] = j
	// Guaranteed not to block: only submitters (serialized by s.mu) add,
	// and the capacity check above just passed.
	s.queue <- j
	s.mu.Unlock()
	s.submitted.Add(1)
	s.met.submitted.Inc()
	return id, nil
}

// Status reports one job's current status.
func (s *Server) Status(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return j.status(), true
}

// admit persists the job: directory, job.json (the worker's input) and
// the durable ledger record, in that order, so a replayed admit record
// always has its job.json on disk.
func (s *Server) admit(j *job) error {
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return err
	}
	// Job IDs restart at 1 when the ledger is quarantined or deleted
	// while old job directories survive, so the directory may already
	// hold another job's artifacts: scrub them before this job's spec
	// goes durable. A directory that cannot be cleaned is not assigned.
	if err := scrubJobDir(j.dir); err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(j.dir, jobSpecFile), j.spec); err != nil {
		return err
	}
	return s.ledger.admit(j.id, j.spec)
}

// List returns every job's status in ID order (the JobAPI surface
// behind GET /jobs).
func (s *Server) List() []JobStatus {
	s.mu.Lock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids)
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		out = append(out, j.status())
	}
	return out
}

// Lookup returns one job's full status (the JobAPI surface behind
// GET /jobs/{id}). Live progress rides the status: the last heartbeat
// the worker logged, read fresh from the event log on every fetch.
// Best-effort — a job without artifacts or heartbeats simply omits the
// field.
func (s *Server) Lookup(id string) (JobStatus, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	st := j.status()
	st.Progress = lastProgress(j.dir)
	return st, true
}

// Events returns a job's durable events with Seq > after, in sequence
// order (the JobAPI surface behind GET /jobs/{id}/events). ?after=N
// lets a consumer resume exactly where a previous fetch (or a previous
// daemon incarnation) left off; the result is a snapshot, not a tail.
// The error taxonomy is deliberate: an unknown ID is ErrNoJob, a job
// whose event log does not exist yet is an empty stream (not an
// error), and a log that exists but cannot be trusted wraps
// ErrCorruptEvents — a fleet frontend maps the three to "gone",
// "keep waiting" and "re-dispatch" respectively.
func (s *Server) Events(id string, after uint64) ([]any, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNoJob
	}
	evs, err := readJobEvents(j.dir, after)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil // admitted, but no events durable yet
		}
		var ce *checkpoint.CorruptError
		if errors.As(err, &ce) {
			return nil, fmt.Errorf("%w: %v", ErrCorruptEvents, err)
		}
		return nil, err
	}
	out := make([]any, len(evs))
	for i := range evs {
		out[i] = evs[i]
	}
	return out, nil
}

// lastProgress returns the most recent progress heartbeat in dir's event
// log, or nil when there is none (no log, no heartbeats, or any error —
// progress display never fails a status fetch).
func lastProgress(dir string) *ProgressInfo {
	evs, err := readJobEvents(dir, 0)
	if err != nil {
		return nil
	}
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Type == EventProgress {
			return &ProgressInfo{
				Attempt: evs[i].Attempt,
				Iter:    evs[i].Iter,
				Preds:   evs[i].Preds,
				Queries: evs[i].Queries,
				Engine:  evs[i].Engine,
				Seq:     evs[i].Seq,
			}
		}
	}
	return nil
}

func (s *Server) artifactHandler(name string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		j, ok := s.jobs[r.PathValue("id")]
		s.mu.Unlock()
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
			return
		}
		http.ServeFile(w, r, filepath.Join(j.dir, name))
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
