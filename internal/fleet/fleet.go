// Package fleet implements the predabsd frontend router: a process
// that speaks the same HTTP job API as a single predabsd node but owns
// no workers — it admits jobs, deduplicates them by content address,
// and dispatches each distinct run to one of N backend predabsd nodes,
// surviving the death of any backend (lease-based failover) and of
// itself (a durable ledger replayed on restart).
//
// # Fault model
//
// Backends fail by crashing (SIGKILL, OOM), by becoming unreachable,
// or by shedding load (503 + Retry-After). The frontend fails by
// crashing at any instant. The invariants held across all of these:
//
//   - A job the frontend acknowledged (202 + ID) is never lost: its
//     admit record is durable before the response is written.
//   - A run produces exactly one verdict record, and the verdict's
//     stdout is byte-identical to a direct slam run over the same
//     inputs — re-dispatch after a backend death re-runs the
//     deterministic pipeline, it never stitches partial results.
//   - Dedup never caches failure: a run that exhausts its dispatch
//     budget reports outcome "unknown" to the jobs already joined and
//     is invalidated, so the next identical submit runs fresh.
//   - Degradation retreats to "unknown", never to a wrong verdict.
package fleet

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"predabs/internal/checkpoint"
	"predabs/internal/metrics"
	"predabs/internal/server"
)

// Config parameterizes a Frontend. Zero values select the documented
// defaults.
type Config struct {
	// DataDir holds the durable fleet ledger (required).
	DataDir string
	// Backends are the backend predabsd base URLs (required, >= 1).
	Backends []string
	// Client is the HTTP client for all backend traffic (default: a
	// client with a 10s request timeout).
	Client *http.Client
	// Dispatchers sizes the dispatcher pool (default 4): how many runs
	// are driven concurrently.
	Dispatchers int
	// QueueCap bounds runs admitted but not yet picked up by a
	// dispatcher (default 256); beyond it Submit sheds with
	// server.ErrQueueFull.
	QueueCap int
	// DispatchRetries bounds backend attempts per run across frontend
	// restarts (default 4); exhaustion fails the run with outcome
	// "unknown".
	DispatchRetries int
	// LeaseTTL is how long a dispatched run may go without a successful
	// heartbeat poll before its backend is declared dead (default 15s).
	LeaseTTL time.Duration
	// PollInterval spaces heartbeat polls of a backend's event stream
	// (default 500ms). With EventWait > 0 it only paces polls that the
	// backend answered early (events already pending, or a backend that
	// ignores ?wait=).
	PollInterval time.Duration
	// EventWait is the long-poll window passed as ?wait= on event
	// heartbeat polls: the backend holds the request open until news
	// arrives or the window expires (default min(LeaseTTL/3, 5s); set
	// negative to disable long-polling entirely).
	EventWait time.Duration
	// ReconnectBase / ReconnectMax bound the jittered exponential
	// backoff between failed heartbeat polls (defaults 100ms / 5s).
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	// ProbeInterval spaces background /readyz probes (default 2s).
	ProbeInterval time.Duration
	// BreakerThreshold is the consecutive-failure count that trips a
	// backend's circuit breaker (default 3); BreakerReopen the base
	// delay before its half-open probe (default 5s, jittered ±50%).
	BreakerThreshold int
	BreakerReopen    time.Duration
	// AllowJobEnv permits specs carrying Env overrides, mirroring the
	// backend daemon's -allow-job-env flag (the chaos harness needs it).
	AllowJobEnv bool
	// FS is the filesystem the fleet ledger lives on (default: the real
	// OS filesystem). Tests inject fault-injecting implementations.
	FS checkpoint.FS
	// LedgerSnapshotBytes, when > 0, folds terminal runs into snapshot
	// records at restart replay once the ledger exceeds this size,
	// bounding its growth. 0 disables compaction.
	LedgerSnapshotBytes int64
	// Metrics is the optional instrument registry (nil disables).
	Metrics *metrics.Registry
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

func (c *Config) setDefaults() error {
	if c.DataDir == "" {
		return fmt.Errorf("fleet: DataDir must be set")
	}
	if len(c.Backends) == 0 {
		return fmt.Errorf("fleet: at least one backend is required")
	}
	for i, b := range c.Backends {
		c.Backends[i] = strings.TrimRight(b, "/")
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if c.Dispatchers == 0 {
		c.Dispatchers = 4
	}
	if c.QueueCap == 0 {
		c.QueueCap = 256
	}
	if c.DispatchRetries == 0 {
		c.DispatchRetries = 4
	}
	if c.LeaseTTL == 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.PollInterval == 0 {
		c.PollInterval = 500 * time.Millisecond
	}
	if c.EventWait == 0 {
		// Stay well under both the lease TTL (so empty polls still renew
		// the lease several times per TTL) and the client's request
		// timeout (default 10s).
		c.EventWait = c.LeaseTTL / 3
		if c.EventWait > 5*time.Second {
			c.EventWait = 5 * time.Second
		}
	}
	if c.ReconnectBase == 0 {
		c.ReconnectBase = 100 * time.Millisecond
	}
	if c.ReconnectMax == 0 {
		c.ReconnectMax = 5 * time.Second
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerReopen == 0 {
		c.BreakerReopen = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// fjob is one admitted frontend job: an ID bound to a run. Several
// jobs may share a run (dedup).
type fjob struct {
	id       string
	key      string
	dedup    bool
	admitSeq uint64 // ledger seq of this job's admit record
	runStart uint64 // ledger seq of its run's creating admit
	run      *run
}

// Frontend is the fleet router. It implements server.JobAPI, so
// server.APIHandler serves it with the exact routes, JSON shapes and
// error taxonomy of a single-node predabsd.
type Frontend struct {
	cfg Config
	led *fleetLedger
	reg *registry

	mu      sync.Mutex // guards jobs, nextSeq, and queue admission
	jobs    map[string]*fjob
	nextSeq int

	runs     *runTable
	queue    chan *run
	quit     chan struct{}
	wg       sync.WaitGroup
	draining atomic.Bool

	start time.Time
	met   fleetMetrics
}

// New opens (or replays) the fleet ledger in cfg.DataDir, rebuilds
// every admitted job and in-flight run, re-enqueues the in-flight runs
// for adoption or re-dispatch, and starts the health probers and
// dispatcher pool. A frontend SIGKILLed at any commit point restarts
// here into exactly the state it had promised.
func New(cfg Config) (*Frontend, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	led, st, err := openFleetLedger(cfg.FS, cfg.DataDir, cfg.LedgerSnapshotBytes)
	if err != nil {
		return nil, err
	}
	for _, w := range led.log.Warnings() {
		cfg.Logf("fleet ledger: %s", w)
	}
	if led.compactions > 0 {
		cfg.Logf("fleet ledger: compacted, reclaimed %d bytes", led.reclaimedBytes)
	}
	cfg.Metrics.GaugeFunc("fleet_ledger_log_bytes",
		"Fleet ledger size on disk in bytes.", led.size)
	cfg.Metrics.GaugeFunc("fleet_persistence_degraded",
		"1 while the fleet ledger is persistence-degraded (appends failing); the frontend sheds new admissions but keeps serving.",
		func() int64 {
			if led.degradedErr() != nil {
				return 1
			}
			return 0
		})
	f := &Frontend{
		cfg:   cfg,
		led:   led,
		reg:   newRegistry(cfg.Backends, cfg.Client, cfg.BreakerThreshold, cfg.BreakerReopen, cfg.ProbeInterval),
		jobs:  map[string]*fjob{},
		runs:  newRunTable(),
		queue: make(chan *run, cfg.QueueCap),
		quit:  make(chan struct{}),
		start: time.Now(),
		met:   newFleetMetrics(cfg.Metrics),
	}
	f.met.ledgerCompactions.Add(led.compactions)
	f.met.ledgerReclaimed.Add(led.reclaimedBytes)

	// Rebuild runs from the replay, one per creating admit.
	type pendingRun struct {
		start uint64
		r     *run
	}
	rebuilt := map[uint64]*run{}
	var pending []pendingRun
	for start, rr := range st.runs {
		r := newRun(rr.key, rr.spec)
		r.dispatches = rr.dispatches
		r.backend, r.backendID = rr.backend, rr.backendID
		if rr.verdict != nil {
			r.state = rr.verdict.State // StateDone or StateFailed == run state names
			r.exit, r.outcome, r.stdout = rr.verdict.ExitCode, rr.verdict.Outcome, rr.verdict.Stdout
			r.errmsg = rr.verdict.Detail
			close(r.done)
		} else {
			r.resumed = true
			pending = append(pending, pendingRun{start, r})
		}
		rebuilt[start] = r
		// Only the key's live, non-failed run serves future dedup hits.
		if st.runStart[r.key] == start && r.state != runFailed {
			f.runs.mu.Lock()
			f.runs.runs[r.key] = r
			f.runs.mu.Unlock()
		}
	}
	for _, rj := range st.jobs {
		f.jobs[rj.id] = &fjob{id: rj.id, key: rj.key, dedup: rj.dedup,
			admitSeq: rj.admitSeq, runStart: rj.runStart, run: rebuilt[rj.runStart]}
	}
	f.nextSeq = len(st.jobs)
	// Deterministic resume order: oldest creating admit first.
	sort.Slice(pending, func(i, j int) bool { return pending[i].start < pending[j].start })
	for _, p := range pending {
		r := p.r
		f.met.inflight.Inc()
		select {
		case f.queue <- r:
		default:
			// More in-flight runs than QueueCap can only happen when the
			// cap was lowered across the restart; fail the overflow
			// soundly rather than block startup.
			f.finishRun(r, runFailed, 2, "unknown", "", "fleet: dispatch queue overflow on restart")
		}
	}
	f.met.dedupLen.Set(int64(f.runs.size()))

	f.reg.start()
	for i := 0; i < cfg.Dispatchers; i++ {
		f.wg.Add(1)
		go f.dispatcher()
	}
	return f, nil
}

// Submit admits one job: normalize, content-address, dedup, journal,
// enqueue. Implements server.JobAPI.
func (f *Frontend) Submit(spec server.JobSpec) (string, error) {
	if f.draining.Load() {
		return "", server.ErrDraining
	}
	if err := spec.Normalize(); err != nil {
		return "", err
	}
	if len(spec.Env) > 0 && !f.cfg.AllowJobEnv {
		return "", fmt.Errorf("env: overrides are disabled (run the frontend with -allow-job-env)")
	}
	key := server.SpecHash(spec)

	f.mu.Lock()
	defer f.mu.Unlock()
	if f.draining.Load() {
		return "", server.ErrDraining
	}
	if derr := f.led.degradedErr(); derr != nil {
		// The ledger cannot make new admissions durable: shed them with
		// Retry-After (503 at the API layer) rather than acknowledge a
		// job a restart would forget. Already-admitted work keeps
		// running; lookups keep serving.
		f.met.shedDegraded.Inc()
		return "", fmt.Errorf("%w: %v", server.ErrPersistDegraded, derr)
	}
	r, created := f.runs.admit(key, spec)
	if created && len(f.queue) == cap(f.queue) {
		// Shed BEFORE journaling: a refused job must leave no trace.
		f.runs.mu.Lock()
		delete(f.runs.runs, key)
		f.runs.mu.Unlock()
		f.met.shed.Inc()
		return "", server.ErrQueueFull
	}
	f.nextSeq++
	id := fmt.Sprintf("job-%06d", f.nextSeq)
	rec, err := f.led.append(Record{Type: RecAdmit, Job: id, Key: key, Dedup: !created,
		Spec: specForLedger(spec, created)})
	if err != nil {
		// The job was never durably admitted; undo the table entry.
		if created {
			f.runs.mu.Lock()
			if f.runs.runs[key] == r {
				delete(f.runs.runs, key)
			}
			f.runs.mu.Unlock()
		}
		f.nextSeq--
		if derr := f.led.degradedErr(); derr != nil {
			// This append is the one that discovered the disk failure.
			f.met.shedDegraded.Inc()
			return "", fmt.Errorf("%w: %v", server.ErrPersistDegraded, derr)
		}
		return "", fmt.Errorf("fleet ledger: %w", err)
	}
	j := &fjob{id: id, key: key, dedup: !created, admitSeq: rec.Seq, run: r}
	if created {
		j.runStart = rec.Seq
	} else {
		j.runStart = f.runStartOf(key, rec.Seq)
	}
	f.jobs[id] = j
	f.met.submitted.Inc()
	if created {
		f.met.inflight.Inc()
		f.met.dedupLen.Set(int64(f.runs.size()))
		f.queue <- r // capacity checked above under mu
	} else {
		f.met.deduped.Inc()
	}
	return id, nil
}

// specForLedger returns the spec pointer for an admit record: only the
// creating admit carries it.
func specForLedger(spec server.JobSpec, created bool) *server.JobSpec {
	if !created {
		return nil
	}
	return &spec
}

// runStartOf finds the creating admit of key's live run by scanning
// the ledger backwards from before seq.
func (f *Frontend) runStartOf(key string, before uint64) uint64 {
	records := f.led.snapshot()
	for i := len(records) - 1; i >= 0; i-- {
		rec := records[i]
		if rec.Seq < before && rec.Type == RecAdmit && rec.Key == key && !rec.Dedup {
			return rec.Seq
		}
	}
	return 0
}

// Lookup implements server.JobAPI.
func (f *Frontend) Lookup(id string) (server.JobStatus, bool) {
	f.mu.Lock()
	j, ok := f.jobs[id]
	f.mu.Unlock()
	if !ok {
		return server.JobStatus{}, false
	}
	return f.status(j), true
}

// List implements server.JobAPI: every job's status in ID order.
func (f *Frontend) List() []server.JobStatus {
	f.mu.Lock()
	jobs := make([]*fjob, 0, len(f.jobs))
	for _, j := range f.jobs {
		jobs = append(jobs, j)
	}
	f.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].id < jobs[k].id })
	out := make([]server.JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, f.status(j))
	}
	return out
}

// status maps a job's run onto the shared JobStatus shape.
func (f *Frontend) status(j *fjob) server.JobStatus {
	r := j.run
	st := server.JobStatus{ID: j.id, SpecHash: j.key}
	if r == nil {
		// An admit whose creating record was lost can only arise from a
		// hand-edited ledger; report it as failed-unknown, never guess.
		st.State = server.StateFailed
		st.Outcome = "unknown"
		st.ExitCode = 2
		st.Error = "fleet: run record missing from ledger"
		return st
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st.Attempts = r.dispatches
	st.Resumed = r.resumed
	st.Backend = r.backend
	st.Error = r.errmsg
	switch r.state {
	case runPending:
		if r.dispatches > 0 {
			st.State = server.StateRetrying
		} else {
			st.State = server.StateQueued
		}
	case runWatching:
		st.State = server.StateRunning
	case runDone:
		st.State = server.StateDone
		st.ExitCode, st.Outcome, st.Stdout = r.exit, r.outcome, r.stdout
	case runFailed:
		st.State = server.StateFailed
		st.ExitCode, st.Outcome = r.exit, r.outcome
	}
	return st
}

// Events implements server.JobAPI: the job's synthesized event stream
// with sequence > after. Unknown IDs return server.ErrNoJob; the
// stream is always consistent because it is derived from the durable
// ledger, never from transient state.
func (f *Frontend) Events(id string, after uint64) ([]any, error) {
	f.mu.Lock()
	j, ok := f.jobs[id]
	f.mu.Unlock()
	if !ok {
		return nil, server.ErrNoJob
	}
	return synthesizeEvents(f.led.snapshot(), j.admitSeq, j.runStart, j.key, after), nil
}

// Handler returns the frontend's HTTP API — the same surface as a
// single-node predabsd, served off server.APIHandler.
func (f *Frontend) Handler() http.Handler {
	return server.APIHandler(f, server.APIExtras{
		Metrics: f.cfg.Metrics,
		Ready: func() error {
			if f.draining.Load() {
				return fmt.Errorf("draining")
			}
			if f.reg.healthyCount() == 0 {
				return fmt.Errorf("no backend available")
			}
			return nil
		},
		Healthz: func() map[string]any {
			return map[string]any{"status": "ok", "role": "frontend",
				"uptime_s":             int64(time.Since(f.start).Seconds()),
				"persistence_degraded": f.led.degradedErr() != nil,
			}
		},
		Statz: f.statz,
	})
}

func (f *Frontend) statz() map[string]any {
	f.mu.Lock()
	jobs := len(f.jobs)
	f.mu.Unlock()
	backends := make([]map[string]any, 0, len(f.reg.nodes))
	for _, n := range f.reg.nodes {
		state, tripped, reopened := n.br.Snapshot()
		backends = append(backends, map[string]any{
			"url": n.url, "ready": n.ready.Load(), "suspended": n.isSuspended(),
			"breaker": state, "breaker_trips": tripped, "breaker_reopens": reopened,
		})
	}
	st := map[string]any{
		"role":                 "frontend",
		"jobs":                 jobs,
		"dedup_entries":        f.runs.size(),
		"queue_depth":          len(f.queue),
		"backends":             backends,
		"uptime_s":             int64(time.Since(f.start).Seconds()),
		"ledger_log_bytes":     f.led.size(),
		"persistence_degraded": f.led.degradedErr() != nil,
	}
	if derr := f.led.degradedErr(); derr != nil {
		st["persistence_error"] = derr.Error()
	}
	return st
}

// finishRun records a run's terminal verdict: journal first, then the
// in-memory transition — the durable-before-visible ordering the whole
// design rests on. Exactly one verdict record per run.
func (f *Frontend) finishRun(r *run, state string, exit int, outcome, stdout, errmsg string) {
	if _, err := f.led.append(Record{Type: RecVerdict, Key: r.key,
		State: state, ExitCode: exit, Outcome: outcome, Stdout: stdout, Detail: errmsg}); err != nil {
		// The ledger is unwritable, so the verdict is not durable — but
		// it is still the backend's real, sound answer: serve it from
		// memory as-is. A restart replays the run as in-flight and
		// re-runs the deterministic pipeline, which can only reproduce
		// the same verdict; degrading it to "unknown" here would trade a
		// correct answer for a weaker one with no soundness gain. New
		// admissions are shed separately while the ledger is degraded.
		f.cfg.Logf("fleet ledger: verdict append failed (serving verdict non-durably): %v", err)
	}
	f.runs.complete(r, state, exit, outcome, stdout, errmsg)
	f.met.inflight.Dec()
	f.met.dedupLen.Set(int64(f.runs.size()))
	if state == runDone {
		f.met.completed.Inc()
	} else {
		f.met.failed.Inc()
	}
}

// Shutdown drains the frontend: stop admitting, stop the probers and
// dispatchers, close the ledger. In-flight runs stay journaled and are
// adopted or re-dispatched by the next start.
func (f *Frontend) Shutdown() {
	if f.draining.Swap(true) {
		return
	}
	close(f.quit)
	f.reg.stop()
	f.wg.Wait()
	if err := f.led.close(); err != nil {
		f.cfg.Logf("fleet ledger: close: %v", err)
	}
}
