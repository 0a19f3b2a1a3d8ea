package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"predabs/internal/breaker"
	"predabs/internal/server"
)

// fakeBackend is an in-process stand-in for a backend predabsd: it
// speaks the routes the frontend uses (/readyz, POST /jobs, GET
// /jobs/{id}, GET /jobs/{id}/events) with scripted behavior, so the
// router's dispatch, dedup, failover and adoption logic is exercised
// without real worker processes.
type fakeBackend struct {
	t *testing.T

	mu      sync.Mutex
	submits int
	nextID  int
	jobs    map[string]*fakeJob
	// reject scripts POST /jobs: nil accepts; otherwise it returns the
	// status code and optional Retry-After header value to serve.
	reject func() (int, string)
	auto   bool // complete each job the moment it is submitted

	srv *httptest.Server
}

type fakeJob struct {
	spec    server.JobSpec
	state   string
	exit    int
	outcome string
	stdout  string
	errmsg  string
	events  []server.JobEvent
}

// verdictFor is the deterministic stdout a completed fake run reports:
// derived from the spec alone, so two backends completing the same
// spec produce byte-identical output — the property real slam runs
// guarantee and the failover tests pin.
func verdictFor(spec server.JobSpec) string {
	return "verdict:" + server.SpecHash(spec)[:12] + "\n"
}

func newFakeBackend(t *testing.T, auto bool) *fakeBackend {
	fb := &fakeBackend{t: t, auto: auto, jobs: map[string]*fakeJob{}}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ready\n"))
	})
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		fb.mu.Lock()
		reject := fb.reject
		fb.mu.Unlock()
		if reject != nil {
			status, ra := reject()
			if ra != "" {
				w.Header().Set("Retry-After", ra)
			}
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(map[string]string{"error": "scripted rejection"})
			return
		}
		var spec server.JobSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		fb.mu.Lock()
		fb.submits++
		fb.nextID++
		id := fmt.Sprintf("bjob-%06d", fb.nextID)
		j := &fakeJob{spec: spec, state: server.StateQueued}
		j.events = append(j.events, server.JobEvent{Seq: 1, TS: 1, Type: server.EventState, State: server.StateQueued})
		fb.jobs[id] = j
		auto := fb.auto
		fb.mu.Unlock()
		if auto {
			fb.complete(id)
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": id})
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		fb.mu.Lock()
		defer fb.mu.Unlock()
		j, ok := fb.jobs[r.PathValue("id")]
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]string{"error": "no such job"})
			return
		}
		json.NewEncoder(w).Encode(server.JobStatus{
			ID: r.PathValue("id"), State: j.state, SpecHash: server.SpecHash(j.spec),
			ExitCode: j.exit, Outcome: j.outcome, Stdout: j.stdout, Error: j.errmsg,
		})
	})
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		var after uint64
		if v := r.URL.Query().Get("after"); v != "" {
			n, _ := strconv.ParseUint(v, 10, 64)
			after = n
		}
		fb.mu.Lock()
		defer fb.mu.Unlock()
		j, ok := fb.jobs[r.PathValue("id")]
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]string{"error": "no such job"})
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, ev := range j.events {
			if ev.Seq > after {
				enc.Encode(ev)
			}
		}
	})
	fb.srv = httptest.NewServer(mux)
	t.Cleanup(fb.srv.Close)
	return fb
}

func (fb *fakeBackend) url() string { return fb.srv.URL }

func (fb *fakeBackend) submitCount() int {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.submits
}

// firstJobID waits until the backend has received at least one job.
func (fb *fakeBackend) firstJobID() string {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		fb.mu.Lock()
		for id := range fb.jobs {
			fb.mu.Unlock()
			return id
		}
		fb.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
	}
	fb.t.Fatal("backend never received a job")
	return ""
}

func (fb *fakeBackend) setJob(id, state string, exit int, outcome, stdout, errmsg string) {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	j := fb.jobs[id]
	j.state, j.exit, j.outcome, j.stdout, j.errmsg = state, exit, outcome, stdout, errmsg
	j.events = append(j.events, server.JobEvent{
		Seq: uint64(len(j.events) + 1), TS: 2, Type: server.EventState, State: state,
	})
}

func (fb *fakeBackend) complete(id string) {
	fb.mu.Lock()
	spec := fb.jobs[id].spec
	fb.mu.Unlock()
	fb.setJob(id, server.StateDone, 0, "verified", verdictFor(spec), "")
}

func (fb *fakeBackend) failJob(id string) {
	fb.setJob(id, server.StateFailed, 2, "unknown", "", "retry budget exhausted")
}

// testConfig returns a Config with aggressive timings so failover
// scenarios resolve in milliseconds.
func testConfig(t *testing.T, backends ...string) Config {
	return Config{
		DataDir:          t.TempDir(),
		Backends:         backends,
		Dispatchers:      2,
		QueueCap:         16,
		DispatchRetries:  3,
		LeaseTTL:         400 * time.Millisecond,
		PollInterval:     15 * time.Millisecond,
		ReconnectBase:    10 * time.Millisecond,
		ReconnectMax:     60 * time.Millisecond,
		ProbeInterval:    40 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerReopen:    100 * time.Millisecond,
		Logf:             t.Logf,
	}
}

func startFrontend(t *testing.T, cfg Config) *Frontend {
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Shutdown)
	return f
}

func testSpec(source string) server.JobSpec {
	// Normalized up front so verdictFor's hash matches what the
	// frontend (which normalizes at admission) sends the backend.
	s := server.JobSpec{Source: source}
	if err := s.Normalize(); err != nil {
		panic(err)
	}
	return s
}

// awaitState polls the job until it reaches state.
func awaitState(t *testing.T, f *Frontend, id, state string) server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var last server.JobStatus
	for time.Now().Before(deadline) {
		st, ok := f.Lookup(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		last = st
		if st.State == state {
			return st
		}
		if st.State == server.StateDone || st.State == server.StateFailed {
			t.Fatalf("job %s reached terminal state %q (outcome %q, error %q), want %q",
				id, st.State, st.Outcome, st.Error, state)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in state %q, want %q", id, last.State, state)
	return last
}

func mustSubmit(t *testing.T, f *Frontend, spec server.JobSpec) string {
	t.Helper()
	id, err := f.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// eventsNDJSON renders a job's synthesized event stream the way the
// HTTP handler would.
func eventsNDJSON(t *testing.T, f *Frontend, id string) []byte {
	t.Helper()
	evs, err := f.Events(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range evs {
		enc.Encode(ev)
	}
	return buf.Bytes()
}

// eventTypes extracts the type sequence of a job's event stream.
func eventTypes(t *testing.T, f *Frontend, id string) []string {
	t.Helper()
	evs, err := f.Events(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, ev := range evs {
		types = append(types, ev.(FleetEvent).Type)
	}
	return types
}

func TestDispatchAndVerdict(t *testing.T) {
	fb := newFakeBackend(t, true)
	f := startFrontend(t, testConfig(t, fb.url()))
	spec := testSpec("void main() {}")
	id := mustSubmit(t, f, spec)
	st := awaitState(t, f, id, server.StateDone)
	if st.Stdout != verdictFor(spec) {
		t.Fatalf("stdout = %q, want %q", st.Stdout, verdictFor(spec))
	}
	if st.Outcome != "verified" || st.ExitCode != 0 {
		t.Fatalf("outcome/exit = %q/%d, want verified/0", st.Outcome, st.ExitCode)
	}
	if st.Backend != fb.url() {
		t.Fatalf("backend = %q, want %q", st.Backend, fb.url())
	}
	if got, want := fmt.Sprint(eventTypes(t, f, id)), "[admit dispatch verdict]"; got != want {
		t.Fatalf("event stream = %v, want %v", got, want)
	}
	if n, err := ValidateEvents(bytes.NewReader(eventsNDJSON(t, f, id))); err != nil {
		t.Fatalf("event stream does not validate after %d records: %v", n, err)
	}
}

// TestDedupSingleFlight pins the content-addressed dedup contract: N
// concurrent submits of one spec cause exactly one backend attempt,
// and every observer receives the identical verdict.
func TestDedupSingleFlight(t *testing.T) {
	fb := newFakeBackend(t, false)
	f := startFrontend(t, testConfig(t, fb.url()))
	spec := testSpec("void main() { A(); }")

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i], errs[i] = f.Submit(spec)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	fb.complete(fb.firstJobID())
	want := verdictFor(spec)
	for _, id := range ids {
		st := awaitState(t, f, id, server.StateDone)
		if st.Stdout != want {
			t.Fatalf("job %s stdout = %q, want %q", id, st.Stdout, want)
		}
	}
	if got := fb.submitCount(); got != 1 {
		t.Fatalf("backend saw %d submits for %d identical jobs, want exactly 1", got, n)
	}

	// A later identical submit is served from the recorded verdict with
	// no backend attempt at all.
	late := mustSubmit(t, f, spec)
	if st := awaitState(t, f, late, server.StateDone); st.Stdout != want {
		t.Fatalf("late dedup hit stdout = %q, want %q", st.Stdout, want)
	}
	if got := fb.submitCount(); got != 1 {
		t.Fatalf("backend saw %d submits after a post-verdict dedup hit, want 1", got)
	}
}

// TestDedupFailureInvalidation pins the no-cached-unknown rule: a run
// that fails delivers the failure to its subscribers, but the next
// identical submit runs fresh.
func TestDedupFailureInvalidation(t *testing.T) {
	fb := newFakeBackend(t, false)
	f := startFrontend(t, testConfig(t, fb.url()))
	spec := testSpec("void main() { B(); }")

	id := mustSubmit(t, f, spec)
	fb.failJob(fb.firstJobID())
	st := awaitState(t, f, id, server.StateFailed)
	if st.Outcome != "unknown" {
		t.Fatalf("failed run outcome = %q, want unknown", st.Outcome)
	}

	// The entry must be invalidated: an identical submit triggers a
	// fresh backend attempt and can succeed.
	id2 := mustSubmit(t, f, spec)
	deadline := time.Now().Add(5 * time.Second)
	for fb.submitCount() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := fb.submitCount(); got != 2 {
		t.Fatalf("backend saw %d submits after failure invalidation, want 2", got)
	}
	fb.mu.Lock()
	var freshID string
	for jid, j := range fb.jobs {
		if j.state == server.StateQueued {
			freshID = jid
		}
	}
	fb.mu.Unlock()
	fb.complete(freshID)
	if st := awaitState(t, f, id2, server.StateDone); st.Stdout != verdictFor(spec) {
		t.Fatalf("post-invalidation stdout = %q, want %q", st.Stdout, verdictFor(spec))
	}
	// The first job keeps observing ITS run's failure, not the retry's
	// success.
	if st, _ := f.Lookup(id); st.State != server.StateFailed {
		t.Fatalf("original job state = %q after retry succeeded, want failed", st.State)
	}
}

// TestFailoverOnBackendDeath kills the backend that holds a dispatched
// run; the lease expires and the run re-dispatches to the survivor
// with a byte-identical verdict.
func TestFailoverOnBackendDeath(t *testing.T) {
	victim := newFakeBackend(t, false) // accepts, never completes
	survivor := newFakeBackend(t, true)
	f := startFrontend(t, testConfig(t, victim.url(), survivor.url()))
	spec := testSpec("void main() { C(); }")

	id := mustSubmit(t, f, spec)
	victim.firstJobID() // dispatched to the victim (round-robin starts there)
	victim.srv.Close()  // SIGKILL stand-in: every later request is refused

	st := awaitState(t, f, id, server.StateDone)
	if st.Stdout != verdictFor(spec) {
		t.Fatalf("post-failover stdout = %q, want %q", st.Stdout, verdictFor(spec))
	}
	if st.Backend != survivor.url() {
		t.Fatalf("post-failover backend = %q, want %q", st.Backend, survivor.url())
	}
	if got, want := fmt.Sprint(eventTypes(t, f, id)), "[admit dispatch lease dispatch verdict]"; got != want {
		t.Fatalf("event stream = %v, want %v", got, want)
	}
	if n, err := ValidateEvents(bytes.NewReader(eventsNDJSON(t, f, id))); err != nil {
		t.Fatalf("event stream does not validate after %d records: %v", n, err)
	}
}

// TestRetryAfterSuspension pins satellite 1: a 503 + Retry-After from
// a backend suspends it for the advertised window instead of tripping
// its breaker, and the dispatch proceeds to the next node.
func TestRetryAfterSuspension(t *testing.T) {
	shedding := newFakeBackend(t, false)
	shedding.mu.Lock()
	shedding.reject = func() (int, string) { return http.StatusServiceUnavailable, "2" }
	shedding.mu.Unlock()
	healthy := newFakeBackend(t, true)
	f := startFrontend(t, testConfig(t, shedding.url(), healthy.url()))
	spec := testSpec("void main() { D(); }")

	id := mustSubmit(t, f, spec)
	st := awaitState(t, f, id, server.StateDone)
	if st.Backend != healthy.url() {
		t.Fatalf("backend = %q, want the healthy node %q", st.Backend, healthy.url())
	}
	var shedEntry map[string]any
	for _, b := range f.statz()["backends"].([]map[string]any) {
		if b["url"] == shedding.url() {
			shedEntry = b
		}
	}
	if shedEntry == nil || shedEntry["suspended"] != true {
		t.Fatalf("shedding backend not suspended: %v", shedEntry)
	}
	if shedEntry["breaker"] != breaker.Closed {
		t.Fatalf("shedding is not a breaker failure; breaker = %v", shedEntry["breaker"])
	}
}

// TestRestartAdoptsDispatchedRun pins the ledger-replay half of the
// tentpole: a frontend that dies between dispatch and verdict restarts,
// finds the backend still running its job, and re-adopts it instead of
// re-dispatching.
func TestRestartAdoptsDispatchedRun(t *testing.T) {
	fb := newFakeBackend(t, false)
	cfg := testConfig(t, fb.url())
	f1 := startFrontend(t, cfg)
	spec := testSpec("void main() { E(); }")
	id := mustSubmit(t, f1, spec)
	bid := fb.firstJobID()
	f1.Shutdown() // in-flight run stays journaled

	fb.complete(bid) // the backend finished while the frontend was down

	f2 := startFrontend(t, cfg)
	st, ok := f2.Lookup(id)
	if !ok {
		t.Fatalf("job %s lost across restart", id)
	}
	if !st.Resumed {
		t.Fatalf("replayed job not marked resumed: %+v", st)
	}
	st = awaitState(t, f2, id, server.StateDone)
	if st.Stdout != verdictFor(spec) {
		t.Fatalf("adopted stdout = %q, want %q", st.Stdout, verdictFor(spec))
	}
	if fb.submitCount() != 1 {
		t.Fatalf("backend saw %d submits, want 1 (adoption must not re-dispatch)", fb.submitCount())
	}
	if got, want := fmt.Sprint(eventTypes(t, f2, id)), "[admit dispatch adopt verdict]"; got != want {
		t.Fatalf("event stream = %v, want %v", got, want)
	}
}

// TestRestartRecoversVerdicts: completed runs survive restarts, and a
// dedup hit after the restart is served from the replayed verdict.
func TestRestartRecoversVerdicts(t *testing.T) {
	fb := newFakeBackend(t, true)
	cfg := testConfig(t, fb.url())
	f1 := startFrontend(t, cfg)
	spec := testSpec("void main() { F(); }")
	id := mustSubmit(t, f1, spec)
	want := awaitState(t, f1, id, server.StateDone).Stdout
	f1.Shutdown()

	f2 := startFrontend(t, cfg)
	st, ok := f2.Lookup(id)
	if !ok || st.State != server.StateDone || st.Stdout != want {
		t.Fatalf("replayed verdict = %+v (ok %v), want done with stdout %q", st, ok, want)
	}
	id2 := mustSubmit(t, f2, spec)
	if st := awaitState(t, f2, id2, server.StateDone); st.Stdout != want {
		t.Fatalf("post-restart dedup stdout = %q, want %q", st.Stdout, want)
	}
	if fb.submitCount() != 1 {
		t.Fatalf("backend saw %d submits, want 1 (replayed verdict must serve dedup)", fb.submitCount())
	}
}

// TestQueueFullSheds: admission beyond QueueCap is refused with
// ErrQueueFull and leaves no trace.
func TestQueueFullSheds(t *testing.T) {
	fb := newFakeBackend(t, false)
	cfg := testConfig(t, fb.url())
	cfg.Dispatchers = 1
	cfg.QueueCap = 1
	f := startFrontend(t, cfg)

	mustSubmit(t, f, testSpec("void main() { G0(); }")) // taken by the dispatcher
	fb.firstJobID()
	mustSubmit(t, f, testSpec("void main() { G1(); }")) // fills the queue
	if _, err := f.Submit(testSpec("void main() { G2(); }")); err != server.ErrQueueFull {
		t.Fatalf("submit beyond QueueCap: err = %v, want ErrQueueFull", err)
	}
	// The shed spec must not linger in the dedup table: submitting it
	// again after drain must be admissible.
	if f.runs.size() != 2 {
		t.Fatalf("dedup table holds %d entries after shed, want 2", f.runs.size())
	}
}

// TestSubmitRacingLedgerCloseIsDraining: an admission that passed the
// draining check but lost the race with Shutdown's ledger close must
// report ErrDraining (503, retryable), not a client error, and leave no
// trace.
func TestSubmitRacingLedgerCloseIsDraining(t *testing.T) {
	fb := newFakeBackend(t, true)
	f := startFrontend(t, testConfig(t, fb.url()))
	if err := f.led.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit(testSpec("void main() { int closed; }")); !errors.Is(err, server.ErrDraining) {
		t.Fatalf("submit after ledger close: err = %v, want ErrDraining", err)
	}
	if f.runs.size() != 0 {
		t.Fatalf("refused submit left %d dedup entries", f.runs.size())
	}
}

func TestHandlerEndToEnd(t *testing.T) {
	fb := newFakeBackend(t, true)
	f := startFrontend(t, testConfig(t, fb.url()))
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	spec := testSpec("void main() { H(); }")

	body, _ := json.Marshal(spec)
	resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || out.ID == "" {
		t.Fatalf("POST /jobs = %d %+v, want 202 with an id", resp.StatusCode, out)
	}
	awaitState(t, f, out.ID, server.StateDone)

	resp, err = http.Get(srv.URL + "/jobs/" + out.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	n, verr := ValidateEvents(resp.Body)
	resp.Body.Close()
	if verr != nil {
		t.Fatalf("served event stream invalid after %d records: %v", n, verr)
	}
	if n == 0 {
		t.Fatal("served event stream empty")
	}

	if resp, err = http.Get(srv.URL + "/jobs/nope/events"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("events for unknown job = %d, want 404", resp.StatusCode)
		}
	}
	if resp, err = http.Get(srv.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/readyz = %d, want 200", resp.StatusCode)
		}
	}
}
