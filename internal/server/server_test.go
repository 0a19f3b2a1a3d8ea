// End-to-end tests for the predabsd daemon core: the predabsd binary is
// built once, then driven through the exported Server API (and its HTTP
// handler) with real worker subprocesses — verdict fidelity against
// direct in-process runs, admission validation, load shedding, sound
// retry exhaustion, and restart-resume from the ledger.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"predabs/internal/checkpoint"
	"predabs/internal/corpus"
	"predabs/internal/runner"
	"predabs/internal/server"
)

var predabsdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "predabsd-bin-")
	if err != nil {
		panic(err)
	}
	predabsdBin = filepath.Join(dir, "predabsd")
	build := exec.Command("go", "build", "-o", predabsdBin, "predabs/cmd/predabsd")
	wd, _ := os.Getwd()
	build.Dir = filepath.Dir(filepath.Dir(wd)) // internal/server -> repo root
	if out, err := build.CombinedOutput(); err != nil {
		panic("building predabsd: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

const verifiedSrc = `
void main(int x) {
  if (x > 3) {
    assert(x > 1);
  }
}
`

const buggySrc = `
void main(int x) {
  if (x > 3) {
    assert(x < 2);
  }
}
`

// newServer builds a started Server over a fresh data dir; mutate tweaks
// the config before New. The server is shut down at test cleanup (a
// second Shutdown on an already-drained server is a harmless no-op).
func newServer(t *testing.T, mutate func(*server.Config)) *server.Server {
	t.Helper()
	cfg := server.Config{
		DataDir:        t.TempDir(),
		WorkerBin:      predabsdBin,
		AttemptTimeout: 30 * time.Second,
		RetryBase:      time.Millisecond,
		RetryMax:       10 * time.Millisecond,
		Artifacts:      true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// await polls until the job reaches a terminal state.
func await(t *testing.T, s *server.Server, id string, timeout time.Duration) server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, ok := s.Status(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State == server.StateDone || st.State == server.StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q after %v", id, st.State, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// awaitState polls until the job reports the wanted state.
func awaitState(t *testing.T, s *server.Server, id, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, ok := s.Status(id)
		if ok && st.State == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached state %q (now %q)", id, want, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// direct runs the same inputs through internal/runner in-process — the
// exact code path a daemon worker uses — as the byte-identical reference.
func direct(t *testing.T, spec server.JobSpec) (string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code, _ := runner.Run(runner.Input{
		SourceName: "job.c",
		Source:     spec.Source,
		Spec:       spec.Spec,
		HasSpec:    spec.Spec != "",
		Entry:      entryOr(spec.Entry),
		MaxIters:   10,
		Explain:    spec.Explain,
	}, &stdout, &stderr)
	return stdout.String(), code
}

func entryOr(e string) string {
	if e == "" {
		return "main"
	}
	return e
}

// TestDaemonVerdictsMatchDirectRuns submits a verified program, a buggy
// program, and a Table 1 driver with its SLIC specification, and checks
// every daemon verdict (stdout and exit code) is byte-identical to a
// direct run, with the job artifacts on disk behind the HTTP API.
func TestDaemonVerdictsMatchDirectRuns(t *testing.T) {
	drv := corpus.Drivers()[1] // ioctl: verified, multi-iteration
	specs := []server.JobSpec{
		{Source: verifiedSrc},
		{Source: buggySrc, Explain: true},
		{Source: drv.Source, Spec: drv.Spec, Entry: drv.Entry},
	}
	wantOutcome := []string{"verified", "error-found", "verified"}

	s := newServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i, spec := range specs {
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		st := await(t, s, id, 30*time.Second)
		if st.State != server.StateDone {
			t.Fatalf("job %s: state %q error %q", id, st.State, st.Error)
		}
		if st.Outcome != wantOutcome[i] {
			t.Errorf("job %s: outcome %q, want %q", id, st.Outcome, wantOutcome[i])
		}
		refOut, refCode := direct(t, spec)
		if st.Stdout != refOut {
			t.Errorf("job %s stdout diverges from direct run:\ndaemon:\n%s\ndirect:\n%s", id, st.Stdout, refOut)
		}
		if st.ExitCode != refCode {
			t.Errorf("job %s exit %d, want %d", id, st.ExitCode, refCode)
		}

		// Artifacts are served over HTTP and are well-formed.
		for _, ep := range []string{"trace", "report"} {
			resp, err := http.Get(ts.URL + "/jobs/" + id + "/" + ep)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("job %s artifact %s: HTTP %d", id, ep, resp.StatusCode)
			}
			if len(bytes.TrimSpace(body)) == 0 {
				t.Fatalf("job %s artifact %s: empty", id, ep)
			}
			if ep == "report" && !json.Valid(body) {
				t.Fatalf("job %s report.json is not valid JSON", id)
			}
		}
	}

	c := s.CounterSnapshot()
	if c.Completed != int64(len(specs)) || c.Failed != 0 || c.Shed != 0 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestSubmitValidation exercises the admission validation surface, both
// through Submit and through the HTTP handler.
func TestSubmitValidation(t *testing.T) {
	s := newServer(t, nil)
	bad := []server.JobSpec{
		{},                                    // empty source
		{Source: verifiedSrc, MaxIters: -1},   // negative limit
		{Source: verifiedSrc, CubeBudget: -5}, // negative limit
		{Source: verifiedSrc, Env: []string{"X=1"}}, // env without -allow-job-env
	}
	for i, spec := range bad {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("spec %d admitted, want validation error", i)
		}
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for name, c := range map[string]struct{ body, names string }{
		"malformed":     {`{"source": `, ""},
		"unknown-field": {`{"source": "void main() {}", "bogus": 1}`, `"bogus"`},
		"empty-source":  {`{"entry": "main"}`, "source"},
		// jobs is not a JobSpec field: the cube search has no worker pool.
		"jobs-field": {`{"source": "void main() {}", "jobs": 2}`, `"jobs"`},
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var msg struct{ Error string }
		json.NewDecoder(resp.Body).Decode(&msg)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, resp.StatusCode)
		}
		if !strings.Contains(msg.Error, c.names) {
			t.Errorf("%s: error %q does not name %s", name, msg.Error, c.names)
		}
	}
	if c := s.CounterSnapshot(); c.Submitted != 0 {
		t.Fatalf("rejected submissions counted as admitted: %+v", c)
	}
}

// TestQueueShedding wedges the single worker slot with a hanging job,
// fills the one-deep queue, and checks the next submission is shed —
// ErrQueueFull from Submit, 503 + Retry-After over HTTP.
func TestQueueShedding(t *testing.T) {
	s := newServer(t, func(c *server.Config) {
		c.Workers = 1
		c.QueueCap = 1
		c.AllowJobEnv = true
		c.Retries = 0
	})
	hang := server.JobSpec{
		Source:           verifiedSrc,
		Env:              []string{server.HangEnv + "=1"},
		AttemptTimeoutMS: int64((30 * time.Second) / time.Millisecond),
	}
	wedged, err := s.Submit(hang)
	if err != nil {
		t.Fatal(err)
	}
	// The worker slot must have dequeued the wedged job before the queue
	// depth below is meaningful.
	awaitState(t, s, wedged, server.StateRunning, 10*time.Second)

	if _, err := s.Submit(hang); err != nil {
		t.Fatalf("queueing one job behind the wedged worker: %v", err)
	}
	if _, err := s.Submit(hang); err != server.ErrQueueFull {
		t.Fatalf("overfull submit: err %v, want ErrQueueFull", err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(hang)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed submission: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed submission: missing Retry-After")
	}
	if c := s.CounterSnapshot(); c.Shed != 2 || c.Submitted != 2 {
		t.Fatalf("counters after shedding: %+v", c)
	}

	// Tear down without waiting for the wedged worker: an expired context
	// forces the SIGKILL path.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	s.Shutdown(ctx)
}

// TestRetryExhaustionReportsUnknown schedules a torn-frame crash at the
// first checkpoint commit of every attempt — an attempt that never
// completes and never makes durable progress — and checks the daemon
// retreats to outcome "unknown" when the budget runs out. It must never
// invent a verdict for a job whose workers all died.
func TestRetryExhaustionReportsUnknown(t *testing.T) {
	drv := corpus.Drivers()[1] // ioctl: has checkpoint commits to crash on
	s := newServer(t, func(c *server.Config) {
		c.AllowJobEnv = true
		c.Retries = 1
	})
	id, err := s.Submit(server.JobSpec{
		Source: drv.Source, Spec: drv.Spec, Entry: drv.Entry,
		Env: []string{checkpoint.CrashEnv + "=1:torn"},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := await(t, s, id, 30*time.Second)
	if st.State != server.StateFailed {
		t.Fatalf("state %q, want failed (result: %+v)", st.State, st)
	}
	if st.Outcome != "unknown" || st.ExitCode != runner.ExitUnknown {
		t.Fatalf("exhausted job reported outcome %q exit %d — a dead worker must yield unknown",
			st.Outcome, st.ExitCode)
	}
	if st.Attempts != 2 {
		t.Fatalf("attempts %d, want 2 (retries=1)", st.Attempts)
	}
	if !strings.Contains(st.Error, "retry budget exhausted") {
		t.Fatalf("error %q does not name retry exhaustion", st.Error)
	}
	if c := s.CounterSnapshot(); c.Failed != 1 || c.Retries != 1 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestRestartResumesJournaledJobs crashes a job's first attempt after
// one committed CEGAR iteration, shuts the daemon down mid-backoff (the
// retry never runs), then starts a second server over the same data dir:
// the job must be re-enqueued from the ledger, resume from the committed
// iteration, and finish with a verdict byte-identical to a direct run —
// with the durable attempt count spanning both daemon lifetimes.
func TestRestartResumesJournaledJobs(t *testing.T) {
	drv := corpus.Drivers()[1] // ioctl: verified in 3 iterations, 2 commits
	dataDir := t.TempDir()
	spec := server.JobSpec{
		Source: drv.Source, Spec: drv.Spec, Entry: drv.Entry,
		Env: []string{checkpoint.CrashEnv + "=1"}, // die at each attempt's first new commit
	}

	s1 := newServer(t, func(c *server.Config) {
		c.DataDir = dataDir
		c.AllowJobEnv = true
		c.Retries = 5
		c.RetryBase = time.Minute // park attempt 2 in backoff until shutdown
		c.RetryMax = time.Hour
	})
	id, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, s1, id, server.StateRetrying, 20*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	s1.Shutdown(ctx) // interrupts the backoff; the job stays pending in the ledger

	s2 := newServer(t, func(c *server.Config) {
		c.DataDir = dataDir
		c.AllowJobEnv = true
		c.Retries = 5
	})
	if c := s2.CounterSnapshot(); c.Resumed != 1 {
		t.Fatalf("restarted daemon resumed %d jobs, want 1", c.Resumed)
	}
	st := await(t, s2, id, 30*time.Second)
	if st.State != server.StateDone {
		t.Fatalf("resumed job: state %q error %q", st.State, st.Error)
	}
	if !st.Resumed {
		t.Fatal("status does not mark the job as resumed")
	}
	// Attempt 1 (first daemon) committed iteration 1; with a crash at
	// every attempt's first new commit, attempts 2 and 3 commit iteration
	// 2 and then converge — 3 attempts across the two daemon lifetimes.
	if st.Attempts != 3 {
		t.Fatalf("attempts %d, want 3 (durable budget across restarts)", st.Attempts)
	}
	refOut, refCode := direct(t, spec)
	if st.Stdout != refOut || st.ExitCode != refCode {
		t.Fatalf("resumed verdict diverges from direct run:\ndaemon (exit %d):\n%s\ndirect (exit %d):\n%s",
			st.ExitCode, st.Stdout, refCode, refOut)
	}

	// New submissions on the restarted daemon must not reuse ledger IDs.
	id2, err := s2.Submit(server.JobSpec{Source: verifiedSrc})
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("restarted daemon reused job ID %s", id)
	}
	await(t, s2, id2, 30*time.Second)
}

// TestLedgerWithJobsFieldReplays starts a daemon over a data dir that a
// daemon with a cube-search worker pool left behind: every admit record
// and job.json carries "jobs":2, a field JobSpec no longer has. Job 1
// was admitted and never ran; job 2 finished with error-found. Replay
// must ignore the field: job 1 re-runs to the verdict a direct run
// gives, and job 2 keeps its durable verdict. Neither may error or be
// lost.
func TestLedgerWithJobsFieldReplays(t *testing.T) {
	dataDir := t.TempDir()
	oldSpec := func(src string) string {
		quoted, err := json.Marshal(src)
		if err != nil {
			t.Fatal(err)
		}
		return `{"source":` + string(quoted) + `,"entry":"main","max_iters":10,"jobs":2}`
	}
	for id, src := range map[string]string{"job-000001": verifiedSrc, "job-000002": buggySrc} {
		dir := filepath.Join(dataDir, "jobs", id)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "job.json"), []byte(oldSpec(src)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	records := []string{
		`{"type":"admit","id":"job-000001","spec":` + oldSpec(verifiedSrc) + `}`,
		`{"type":"admit","id":"job-000002","spec":` + oldSpec(buggySrc) + `}`,
		`{"type":"attempt","id":"job-000002","attempt":1}`,
		`{"type":"done","id":"job-000002","state":"done","exit":1,"outcome":"error-found"}`,
	}
	payloads := make([][]byte, len(records))
	for i, r := range records {
		payloads[i] = []byte(r)
	}
	// The job ledger's format-1 magic, as the daemon writes it.
	if err := checkpoint.RewriteLog(nil, filepath.Join(dataDir, server.LedgerName), "PREDABSLGR1\x00", payloads); err != nil {
		t.Fatal(err)
	}

	s := newServer(t, func(c *server.Config) { c.DataDir = dataDir })
	if c := s.CounterSnapshot(); c.Resumed != 1 {
		t.Fatalf("daemon resumed %d jobs from the old ledger, want 1", c.Resumed)
	}
	st := await(t, s, "job-000001", 30*time.Second)
	refOut, refCode := direct(t, server.JobSpec{Source: verifiedSrc})
	if st.State != server.StateDone || st.Stdout != refOut || st.ExitCode != refCode {
		t.Fatalf("replayed pending job: state %q error %q exit %d, want done with the direct run's verdict (exit %d):\n%s",
			st.State, st.Error, st.ExitCode, refCode, st.Stdout)
	}
	done, ok := s.Status("job-000002")
	if !ok || done.State != server.StateDone || done.Outcome != "error-found" || done.ExitCode != 1 {
		t.Fatalf("replayed finished job lost its verdict: %+v (found %t)", done, ok)
	}
}

// TestSpecHashWithoutJobsUnchanged pins the content address of specs
// that never carried jobs: the values below are what SpecHash gave while
// JobSpec still had its omitempty jobs field, so a daemon and a fleet
// frontend on either side of its removal agree on every such spec.
func TestSpecHashWithoutJobsUnchanged(t *testing.T) {
	for _, c := range []struct {
		spec server.JobSpec
		want string
	}{
		{server.JobSpec{Source: "void main() {}", Entry: "main", MaxIters: 10},
			"a78cb9e0ead045878ee3010f990675e26812b534e76444b9af4a684637b19fbe"},
		{server.JobSpec{Source: "void main(int x) { assert(x == x); }", Spec: "state { int s = 0; }",
			Entry: "main", MaxIters: 7, AbsEngine: "models", Explain: true, TimeoutMS: 1500,
			QueryTimeoutMS: 20, CubeBudget: 300, BDDMaxNodes: 5000, AttemptTimeoutMS: 60000,
			Env: []string{"K=V"}},
			"514359c9ff4f719fe71ab34bc2d79ee46431d5088425f0afd92a8b16e9736751"},
	} {
		if got := server.SpecHash(c.spec); got != c.want {
			t.Errorf("SpecHash(%+v) = %s, want %s", c.spec, got, c.want)
		}
	}
}

// TestShutdownKillRefundsFinalAttempt forces shutdown's SIGKILL onto a
// job's only budgeted attempt (a wedged worker, Retries=0): the daemon
// must not durably fail the job for work it interrupted itself — the
// attempt is refunded in the ledger, the job stays pending, and a
// restarted daemon runs it again instead of declaring retry exhaustion
// on sight.
func TestShutdownKillRefundsFinalAttempt(t *testing.T) {
	dataDir := t.TempDir()
	hang := server.JobSpec{
		Source:           verifiedSrc,
		Env:              []string{server.HangEnv + "=1"},
		AttemptTimeoutMS: int64((30 * time.Second) / time.Millisecond),
	}
	s1 := newServer(t, func(c *server.Config) {
		c.DataDir = dataDir
		c.AllowJobEnv = true
		c.Retries = 0
		c.Workers = 1
	})
	id, err := s1.Submit(hang)
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, s1, id, server.StateRunning, 10*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	s1.Shutdown(ctx) // expired grace: the running final attempt is SIGKILLed
	if st, ok := s1.Status(id); !ok || st.State == server.StateFailed {
		t.Fatalf("shutdown durably failed its own interrupted attempt: %+v", st)
	}

	s2 := newServer(t, func(c *server.Config) {
		c.DataDir = dataDir
		c.AllowJobEnv = true
		c.Retries = 0
		c.Workers = 1
	})
	if c := s2.CounterSnapshot(); c.Resumed != 1 {
		t.Fatalf("restarted daemon resumed %d jobs, want 1", c.Resumed)
	}
	// Without the refund the replayed attempt count already equals the
	// budget and the job fails instantly; with it, the attempt re-runs.
	awaitState(t, s2, id, server.StateRunning, 10*time.Second)
	st, _ := s2.Status(id)
	if !st.Resumed || st.Attempts != 1 {
		t.Fatalf("re-run job status %+v, want resumed with the refunded attempt re-counted", st)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	s2.Shutdown(ctx2)
}
