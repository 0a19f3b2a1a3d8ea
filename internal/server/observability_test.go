// Observability tests for the predabsd daemon: the /metrics exposition,
// the durable per-job event log and its resumable NDJSON stream, live
// CEGAR progress in job status, the backoff gauge, and the merged
// daemon+worker Chrome trace.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"predabs"
	"predabs/internal/checkpoint"
	"predabs/internal/corpus"
	"predabs/internal/metrics"
	"predabs/internal/server"
)

// getBody fetches url and returns the body and status code.
func getBody(t *testing.T, url string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.StatusCode
}

// fetchEvents fetches and decodes a job's NDJSON event stream, first
// validating it with the same checker cmd/tracelint -events uses.
func fetchEvents(t *testing.T, baseURL, id string, after uint64) []server.JobEvent {
	t.Helper()
	url := fmt.Sprintf("%s/jobs/%s/events", baseURL, id)
	if after > 0 {
		url += fmt.Sprintf("?after=%d", after)
	}
	body, code := getBody(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, code)
	}
	if _, err := server.ValidateEvents(bytes.NewReader(body)); err != nil {
		t.Fatalf("event stream fails validation: %v\n%s", err, body)
	}
	var out []server.JobEvent
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev server.JobEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("event line %q: %v", line, err)
		}
		out = append(out, ev)
	}
	return out
}

// TestHealthAndStatzReportVersion checks the liveness and stats
// endpoints carry the build version and a sane uptime.
func TestHealthAndStatzReportVersion(t *testing.T) {
	s := newServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, ep := range []string{"/healthz", "/statz"} {
		body, code := getBody(t, ts.URL+ep)
		if code != http.StatusOK {
			t.Fatalf("%s: HTTP %d", ep, code)
		}
		var got struct {
			Status  string `json:"status"`
			Version string `json:"version"`
			Uptime  *int64 `json:"uptime_seconds"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%s: not JSON: %v\n%s", ep, err, body)
		}
		if got.Version != predabs.Version {
			t.Errorf("%s version %q, want %q", ep, got.Version, predabs.Version)
		}
		if got.Uptime == nil || *got.Uptime < 0 {
			t.Errorf("%s uptime_seconds missing or negative: %s", ep, body)
		}
		if ep == "/healthz" && got.Status != "ok" {
			t.Errorf("/healthz status %q, want ok", got.Status)
		}
	}
}

// TestMetricsEndpoint completes one job and checks the Prometheus
// exposition: content type, the daemon's counter families with expected
// values, the folded per-run counters, and byte-identical output across
// consecutive scrapes of the same state.
func TestMetricsEndpoint(t *testing.T) {
	s := newServer(t, func(c *server.Config) { c.Metrics = metrics.New() })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id, err := s.Submit(server.JobSpec{Source: verifiedSrc})
	if err != nil {
		t.Fatal(err)
	}
	await(t, s, id, 30*time.Second)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q, want the 0.0.4 text exposition", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	for _, want := range []string{
		"predabsd_jobs_submitted_total 1\n",
		"predabsd_jobs_completed_total 1\n",
		"predabsd_verdict_verified_total 1\n",
		"predabsd_jobs_failed_total 0\n",
		"predabsd_workers_busy 0\n",
		"# TYPE predabsd_worker_attempt_seconds histogram",
		"predabsd_worker_attempt_seconds_count 1\n",
		"predabsd_queue_depth 0\n",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The verified job ran at least one CEGAR iteration, and the daemon
	// folds the worker's run report into fleet-cumulative counters.
	if strings.Contains(string(body), "predabsd_run_iterations_total 0\n") {
		t.Error("run report counters were not folded into /metrics")
	}

	// Family ordering is deterministic: two scrapes of unchanged state
	// are byte-identical.
	body2, _ := getBody(t, ts.URL+"/metrics")
	if !bytes.Equal(body, body2) {
		t.Error("consecutive scrapes differ — family ordering is not deterministic")
	}
}

// TestMetricsDisabledServesEmpty checks a daemon without a registry
// still serves /metrics (empty body) instead of failing.
func TestMetricsDisabledServesEmpty(t *testing.T) {
	s := newServer(t, nil) // no Metrics registry
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, code := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK || len(body) != 0 {
		t.Fatalf("disabled metrics: HTTP %d body %q, want 200 and empty", code, body)
	}
}

// TestBackoffGaugeTracksParkedRetries parks a crashing job's retry in a
// long backoff and checks the sleep is visible while it lasts: the
// retries-in-backoff gauge reads 1 in both /statz and /metrics, and
// returns to 0 in /statz after shutdown interrupts the sleep.
func TestBackoffGaugeTracksParkedRetries(t *testing.T) {
	drv := corpus.Drivers()[1] // ioctl: has checkpoint commits to crash on
	s := newServer(t, func(c *server.Config) {
		c.AllowJobEnv = true
		c.Retries = 5
		c.RetryBase = time.Minute // park attempt 2 in backoff
		c.RetryMax = time.Hour
		c.Metrics = metrics.New()
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id, err := s.Submit(server.JobSpec{
		Source: drv.Source, Spec: drv.Spec, Entry: drv.Entry,
		Env: []string{checkpoint.CrashEnv + "=1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, s, id, server.StateRetrying, 20*time.Second)

	// The state flips to retrying just before the supervisor enters the
	// sleep, so poll for the gauge.
	statzGauge := func() int64 {
		body, _ := getBody(t, ts.URL+"/statz")
		var got struct {
			N int64 `json:"retries_in_backoff"`
		}
		json.Unmarshal(body, &got)
		return got.N
	}
	deadline := time.Now().Add(10 * time.Second)
	for statzGauge() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("/statz retries_in_backoff never reached 1 for the parked retry")
		}
		time.Sleep(2 * time.Millisecond)
	}
	body, _ := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(body), "predabsd_retries_in_backoff 1\n") {
		t.Error("/metrics does not show the parked retry in the backoff gauge")
	}
	if !strings.Contains(string(body), "predabsd_backoff_sleeps_total 1\n") {
		t.Error("/metrics does not count the entered backoff sleep")
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	s.Shutdown(ctx) // interrupts the backoff; the deferred decrement runs
	if n := statzGauge(); n != 0 {
		t.Fatalf("retries_in_backoff %d after shutdown, want 0", n)
	}
}

// TestEventStreamAndProgress runs a multi-iteration job to completion
// and checks its durable event log: the NDJSON stream validates, covers
// the full lifecycle (queued → spawn → running → done), contains the
// worker's CEGAR progress heartbeats, resumes correctly with ?after=N,
// and surfaces the last heartbeat as live progress in the job status.
func TestEventStreamAndProgress(t *testing.T) {
	drv := corpus.Drivers()[1] // ioctl: verified in 3 iterations → heartbeats
	s := newServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id, err := s.Submit(server.JobSpec{Source: drv.Source, Spec: drv.Spec, Entry: drv.Entry})
	if err != nil {
		t.Fatal(err)
	}
	await(t, s, id, 30*time.Second)

	evs := fetchEvents(t, ts.URL, id, 0)
	if len(evs) == 0 {
		t.Fatal("completed job has no events")
	}
	if evs[0].Seq != 1 {
		t.Fatalf("first event seq %d, want 1", evs[0].Seq)
	}
	var sawTypes []string
	var progress []server.JobEvent
	for _, ev := range evs {
		key := ev.Type
		if ev.Type == server.EventState {
			key = "state:" + ev.State
		}
		sawTypes = append(sawTypes, key)
		if ev.Type == server.EventProgress {
			progress = append(progress, ev)
		}
	}
	for _, want := range []string{"state:queued", "state:running", "spawn", "state:done"} {
		found := false
		for _, got := range sawTypes {
			found = found || got == want
		}
		if !found {
			t.Errorf("lifecycle event %q missing from stream %v", want, sawTypes)
		}
	}
	// The ioctl driver refines twice before converging: iterations 1 and
	// 2 each commit and heartbeat; the terminal iteration does not.
	if len(progress) != 2 {
		t.Fatalf("progress heartbeats %d, want 2 (one per refining iteration)", len(progress))
	}
	for i, p := range progress {
		if p.Iter != i+1 || p.Attempt != 1 || p.Queries <= 0 || p.Engine == "" {
			t.Errorf("heartbeat %d malformed: %+v", i, p)
		}
	}

	// ?after=N resumes exactly past the cursor.
	cut := evs[len(evs)/2].Seq
	rest := fetchEvents(t, ts.URL, id, cut)
	if len(rest) != len(evs)-int(cut) || rest[0].Seq != cut+1 {
		t.Fatalf("?after=%d returned seqs starting %d count %d, want %d onward, count %d",
			cut, rest[0].Seq, len(rest), cut+1, len(evs)-int(cut))
	}
	if _, code := getBody(t, ts.URL+"/jobs/"+id+"/events?after=x"); code != http.StatusBadRequest {
		t.Errorf("bad ?after: HTTP %d, want 400", code)
	}

	// The job status carries the last heartbeat as live progress.
	body, _ := getBody(t, ts.URL+"/jobs/"+id)
	var st server.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	last := progress[len(progress)-1]
	if st.Progress == nil {
		t.Fatal("job status has no progress")
	}
	if st.Progress.Iter != last.Iter || st.Progress.Seq != last.Seq || st.Progress.Preds != last.Preds {
		t.Fatalf("status progress %+v does not match last heartbeat %+v", st.Progress, last)
	}
}

// TestEventLogSurvivesRestart kills a daemon mid-job (crashing worker
// parked in backoff, expired drain) and checks the event log across the
// restart: nothing a client saw before the kill is lost or re-numbered,
// ?after with the pre-kill cursor resumes with the next sequence and no
// duplicates, and the completed stream still validates end to end.
func TestEventLogSurvivesRestart(t *testing.T) {
	drv := corpus.Drivers()[1]
	dataDir := t.TempDir()
	spec := server.JobSpec{
		Source: drv.Source, Spec: drv.Spec, Entry: drv.Entry,
		Env: []string{checkpoint.CrashEnv + "=1"}, // die at each attempt's first new commit
	}
	s1 := newServer(t, func(c *server.Config) {
		c.DataDir = dataDir
		c.AllowJobEnv = true
		c.Retries = 5
		c.RetryBase = time.Minute
		c.RetryMax = time.Hour
	})
	ts1 := httptest.NewServer(s1.Handler())
	id, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, s1, id, server.StateRetrying, 20*time.Second)
	before := fetchEvents(t, ts1.URL, id, 0)
	if len(before) == 0 {
		t.Fatal("no events before the restart")
	}
	cursor := before[len(before)-1].Seq
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	s1.Shutdown(ctx)

	s2 := newServer(t, func(c *server.Config) {
		c.DataDir = dataDir
		c.AllowJobEnv = true
		c.Retries = 5
	})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	st := await(t, s2, id, 30*time.Second)
	if st.State != server.StateDone {
		t.Fatalf("resumed job: state %q error %q", st.State, st.Error)
	}

	after := fetchEvents(t, ts2.URL, id, 0)
	if len(after) <= len(before) {
		t.Fatalf("restarted run added no events: %d before, %d after", len(before), len(after))
	}
	// The pre-kill prefix survives the restart bit for bit: same count of
	// leading records, same sequence numbers, same payloads.
	for i, ev := range before {
		if after[i] != ev {
			t.Fatalf("event %d changed across restart:\nbefore: %+v\nafter:  %+v", i, ev, after[i])
		}
	}
	// A client resuming with its pre-kill cursor sees exactly the new
	// records: dense continuation, no gap, no duplicate.
	resumed := fetchEvents(t, ts2.URL, id, cursor)
	if len(resumed) != len(after)-len(before) {
		t.Fatalf("?after=%d returned %d events, want %d", cursor, len(resumed), len(after)-len(before))
	}
	if resumed[0].Seq != cursor+1 {
		t.Fatalf("resume cursor %d continued at seq %d, want %d", cursor, resumed[0].Seq, cursor+1)
	}
}

// TestChromeTraceMergesAttemptLanes retries a crashing job to a verdict
// and checks the merged Chrome export: one daemon lane with the
// supervision span and per-attempt spans, plus a distinct pipeline lane
// for each attempt's trace (archived for failed attempts, live for the
// final one).
func TestChromeTraceMergesAttemptLanes(t *testing.T) {
	drv := corpus.Drivers()[1]
	s := newServer(t, func(c *server.Config) {
		c.AllowJobEnv = true
		c.Retries = 5
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id, err := s.Submit(server.JobSpec{
		Source: drv.Source, Spec: drv.Spec, Entry: drv.Entry,
		Env: []string{checkpoint.CrashEnv + "=1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := await(t, s, id, 30*time.Second)
	if st.State != server.StateDone || st.Attempts < 2 {
		t.Fatalf("want a retried completed job, got state %q after %d attempts", st.State, st.Attempts)
	}

	body, code := getBody(t, ts.URL+"/jobs/"+id+"/trace.chrome")
	if code != http.StatusOK {
		t.Fatalf("trace.chrome: HTTP %d", code)
	}
	var doc struct {
		TraceEvents []struct {
			Tid  int             `json:"tid"`
			Ph   string          `json:"ph"`
			Name string          `json:"name"`
			Cat  string          `json:"cat"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace.chrome is not valid JSON: %v", err)
	}

	lanes := map[string]bool{} // thread_name metadata values
	daemonSpans := map[string]bool{}
	attemptLanes := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			var meta struct {
				Name string `json:"name"`
			}
			json.Unmarshal(ev.Args, &meta)
			lanes[meta.Name] = true
		}
		if ev.Tid == 0 && ev.Ph == "X" {
			daemonSpans[ev.Name] = true
		}
		if ev.Tid != 0 && ev.Ph != "M" {
			attemptLanes[ev.Tid] = true // attempt N's pipeline lane is tid N
		}
	}
	if !daemonSpans["supervise"] {
		t.Error("merged trace has no supervision span on the daemon lane")
	}
	for n := 1; n <= st.Attempts; n++ {
		if !daemonSpans[fmt.Sprintf("attempt %d", n)] {
			t.Errorf("daemon lane missing the attempt %d span", n)
		}
	}
	// Every attempt left worker events on its own lane: the failed
	// attempts' archived traces and the final attempt's live trace.
	if len(attemptLanes) < 2 {
		t.Fatalf("merged trace has pipeline lanes for %d attempts, want at least 2 (lanes: %v)",
			len(attemptLanes), lanes)
	}
	if !lanes["attempt 1 pipeline"] || !lanes[fmt.Sprintf("attempt %d pipeline", st.Attempts)] {
		t.Fatalf("per-attempt pipeline lanes missing; named lanes: %v", lanes)
	}
}

// TestEventsLongPoll pins the ?wait= long-poll contract on the shared
// job API: a request with events already past the cursor returns
// immediately, a request with nothing new holds the connection for up
// to the wait and then returns an empty 200 stream, a request whose
// events arrive mid-hold returns them well before the full wait, and
// malformed or negative waits are 400s.
func TestEventsLongPoll(t *testing.T) {
	drv := corpus.Drivers()[1]
	s := newServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id, err := s.Submit(server.JobSpec{Source: drv.Source, Spec: drv.Spec, Entry: drv.Entry})
	if err != nil {
		t.Fatal(err)
	}
	await(t, s, id, 30*time.Second)
	evs := fetchEvents(t, ts.URL, id, 0)
	if len(evs) == 0 {
		t.Fatal("completed job has no events")
	}
	last := evs[len(evs)-1].Seq

	// Events already available: the wait must not hold the request.
	start := time.Now()
	body, code := getBody(t, fmt.Sprintf("%s/jobs/%s/events?wait=10s", ts.URL, id))
	if code != http.StatusOK || len(bytes.TrimSpace(body)) == 0 {
		t.Fatalf("long-poll with ready events: HTTP %d, body %q", code, body)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("long-poll with ready events held for %v", d)
	}

	// Nothing past the cursor: the handler parks for the full wait, then
	// answers an empty stream (HTTP 200, not an error) so the client can
	// re-poll with the same cursor.
	start = time.Now()
	body, code = getBody(t, fmt.Sprintf("%s/jobs/%s/events?after=%d&wait=300ms", ts.URL, id, last))
	held := time.Since(start)
	if code != http.StatusOK || len(bytes.TrimSpace(body)) != 0 {
		t.Fatalf("exhausted long-poll: HTTP %d, body %q", code, body)
	}
	if held < 250*time.Millisecond {
		t.Fatalf("exhausted long-poll returned after %v, want ~300ms hold", held)
	}

	// Events arriving mid-hold cut the wait short: polling a just
	// submitted job past its admission event parks until the worker's
	// running/spawn events land, well inside the 10s wait.
	id2, err := s.Submit(server.JobSpec{Source: drv.Source, Spec: drv.Spec, Entry: drv.Entry})
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	body, code = getBody(t, fmt.Sprintf("%s/jobs/%s/events?after=1&wait=10s", ts.URL, id2))
	held = time.Since(start)
	if code != http.StatusOK || len(bytes.TrimSpace(body)) == 0 {
		t.Fatalf("mid-hold long-poll: HTTP %d, body %q", code, body)
	}
	if held > 5*time.Second {
		t.Fatalf("mid-hold long-poll ran the full wait (%v) instead of returning on arrival", held)
	}
	await(t, s, id2, 30*time.Second)

	// Malformed and negative waits are client errors.
	for _, q := range []string{"wait=x", "wait=-1s"} {
		if _, code := getBody(t, fmt.Sprintf("%s/jobs/%s/events?%s", ts.URL, id, q)); code != http.StatusBadRequest {
			t.Errorf("?%s: HTTP %d, want 400", q, code)
		}
	}
}
