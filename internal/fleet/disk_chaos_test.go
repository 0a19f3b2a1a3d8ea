// Disk-chaos tests for the fleet ledger: restart-time snapshot folds
// preserve every job's verdict and the exact event-stream sequences
// clients resumed against, injected write faults flip the frontend to
// persistence-degraded shedding (never a wrong verdict), and a torn
// ledger tail repairs on reopen.
package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"predabs/internal/faultinject"
	"predabs/internal/server"
)

// logCapture collects a frontend's Logf lines (dispatchers log
// concurrently).
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (c *logCapture) logf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lines = append(c.lines, fmt.Sprintf(format, args...))
}

// has reports whether any captured line contains substr.
func (c *logCapture) has(substr string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, line := range c.lines {
		if strings.Contains(line, substr) {
			return true
		}
	}
	return false
}

// verdictSeqOf returns the Seq and Dropped of the verdict event in a
// job's synthesized stream.
func verdictSeqOf(t *testing.T, f *Frontend, id string) (uint64, uint64) {
	t.Helper()
	evs, err := f.Events(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		fe := ev.(FleetEvent)
		if fe.Type == RecVerdict {
			return fe.Seq, fe.Dropped
		}
	}
	t.Fatalf("job %s has no verdict event: %v", id, evs)
	return 0, 0
}

// TestDiskChaosFleetLedgerSnapshotFold drives real traffic through a
// frontend, folds the ledger on restart, and checks the compaction
// contract end to end: verdicts and dedup joins survive, every
// synthesized verdict keeps its pre-compaction sequence number behind
// an explicit Dropped declaration, the streams still validate, and a
// second fold finds nothing left to elide. A rename fault at the fold's
// commit point keeps the full ledger byte-identical and says so.
func TestDiskChaosFleetLedgerSnapshotFold(t *testing.T) {
	fb := newFakeBackend(t, true)
	cfg := testConfig(t, fb.url())
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	specs := []server.JobSpec{
		testSpec("void main() { int a; }"),
		testSpec("void main() { int b; }"),
		testSpec("void main() { int c; }"),
	}
	var ids []string
	for _, spec := range specs {
		id := mustSubmit(t, f, spec)
		awaitState(t, f, id, server.StateDone)
		ids = append(ids, id)
	}
	// A dedup join onto the already-completed first run.
	dedupID := mustSubmit(t, f, specs[0])
	awaitState(t, f, dedupID, server.StateDone)
	ids = append(ids, dedupID)

	type before struct {
		status server.JobStatus
		vseq   uint64
	}
	pre := map[string]before{}
	for _, id := range ids {
		st, ok := f.Lookup(id)
		if !ok {
			t.Fatalf("job %s missing before restart", id)
		}
		vseq, dropped := verdictSeqOf(t, f, id)
		if dropped != 0 {
			t.Fatalf("job %s declares a compaction gap before any compaction", id)
		}
		pre[id] = before{status: st, vseq: vseq}
	}
	f.Shutdown()
	ledgerPath := filepath.Join(cfg.DataDir, LedgerName)
	sizeBefore, err := os.Stat(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}

	cfg.LedgerSnapshotBytes = 1
	// Rename fault at the fold's commit point: the frontend keeps
	// serving the full ledger, byte-identical, and logs the failure.
	faulted := cfg
	faulted.FS = faultinject.NewFS(nil, faultinject.FSConfig{FailRenameAfter: 1})
	logs := &logCapture{}
	faulted.Logf = logs.logf
	fr, err := New(faulted)
	if err != nil {
		t.Fatalf("fold under rename fault must keep serving: %v", err)
	}
	for _, id := range ids {
		if st, ok := fr.Lookup(id); !ok || st.State != pre[id].status.State {
			t.Fatalf("aborted fold lost job %s: ok=%v %+v", id, ok, st)
		}
	}
	fr.Shutdown()
	if !logs.has("fold failed") {
		t.Fatalf("aborted fold not logged: %q", logs.lines)
	}
	if after, err := os.ReadFile(ledgerPath); err != nil || !bytes.Equal(after, raw) {
		t.Fatalf("aborted fold changed the ledger bytes (err %v)", err)
	}

	f2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart with fold: %v", err)
	}
	sizeAfter, err := os.Stat(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if sizeAfter.Size() >= sizeBefore.Size() {
		t.Fatalf("fold did not shrink the ledger: %d -> %d bytes", sizeBefore.Size(), sizeAfter.Size())
	}
	for _, id := range ids {
		st, ok := f2.Lookup(id)
		if !ok {
			t.Fatalf("job %s lost by the fold", id)
		}
		want := pre[id].status
		if st.State != want.State || st.Outcome != want.Outcome ||
			st.Stdout != want.Stdout || st.ExitCode != want.ExitCode {
			t.Fatalf("job %s verdict changed across the fold:\n  got  %+v\n  want %+v", id, st, want)
		}
		vseq, dropped := verdictSeqOf(t, f2, id)
		if vseq != pre[id].vseq {
			t.Fatalf("job %s verdict seq %d after fold, was %d — resumed cursors would skew",
				id, vseq, pre[id].vseq)
		}
		if dropped == 0 {
			t.Fatalf("job %s verdict declares no gap although the fold elided its dispatch", id)
		}
		// A client already caught up to the elided records resumes onto
		// exactly the verdict, no duplicate, no silent gap.
		resumed, err := f2.Events(id, vseq-1)
		if err != nil {
			t.Fatal(err)
		}
		if len(resumed) != 1 || resumed[0].(FleetEvent).Type != RecVerdict {
			t.Fatalf("job %s resume at %d = %v, want exactly the verdict", id, vseq-1, resumed)
		}
		if n, err := ValidateEvents(bytes.NewReader(eventsNDJSON(t, f2, id))); err != nil {
			t.Fatalf("job %s stream invalid after fold (%d records): %v", id, n, err)
		}
	}
	// New work continues past the fold with fresh IDs and valid streams.
	newID := mustSubmit(t, f2, testSpec("void main() { int d; }"))
	awaitState(t, f2, newID, server.StateDone)
	for _, id := range ids {
		if newID == id {
			t.Fatalf("job ID %s recycled after the fold", newID)
		}
	}
	if n, err := ValidateEvents(bytes.NewReader(eventsNDJSON(t, f2, newID))); err != nil {
		t.Fatalf("post-fold stream invalid (%d records): %v", n, err)
	}
	f2.Shutdown()

	// Idempotence: the folded ledger has no terminal churn left.
	sizeFolded, _ := os.Stat(ledgerPath)
	f3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f3.Shutdown()
	sizeThird, _ := os.Stat(ledgerPath)
	// The third open may fold the post-fold job's records, but never the
	// already-folded ones: the size can only shrink by that one run.
	if sizeThird.Size() > sizeFolded.Size() {
		t.Fatalf("re-open grew the ledger: %d -> %d", sizeFolded.Size(), sizeThird.Size())
	}
}

// TestDiskChaosFleetLedgerDegradedShedsAndRecovers fills the disk under
// the fleet ledger while real dispatches race: the frontend must turn
// sticky-degraded, shed new admissions with ErrPersistDegraded, say so
// on /healthz, and recover every durably admitted job on a healthy
// restart.
func TestDiskChaosFleetLedgerDegradedShedsAndRecovers(t *testing.T) {
	fb := newFakeBackend(t, true)
	cfg := testConfig(t, fb.url())
	ffs := faultinject.NewFS(nil, faultinject.FSConfig{
		FailWriteAfter: 9, Sticky: true, PathFilter: LedgerName,
	})
	cfg.FS = ffs
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var acked []string
	var degraded error
	for i := 0; i < 50; i++ {
		id, err := f.Submit(testSpec(fmt.Sprintf("void main() { int x%d; }", i)))
		if err != nil {
			degraded = err
			break
		}
		acked = append(acked, id)
	}
	if degraded == nil {
		t.Fatalf("disk full never surfaced across 50 submits (injected %v)", ffs.Injected())
	}
	if !errors.Is(degraded, server.ErrPersistDegraded) {
		t.Fatalf("shed error = %v, want server.ErrPersistDegraded", degraded)
	}
	if len(acked) == 0 {
		t.Fatal("no job acked before the fault; schedule fired too early")
	}
	if _, err := f.Submit(testSpec("void main() { int late; }")); !errors.Is(err, server.ErrPersistDegraded) {
		t.Fatalf("post-fault submit = %v, want sticky ErrPersistDegraded", err)
	}
	for _, id := range acked {
		if _, ok := f.Lookup(id); !ok {
			t.Fatalf("acked job %s lost while degraded", id)
		}
	}
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var health map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if deg, _ := health["persistence_degraded"].(bool); !deg {
		t.Fatalf("healthz hides the degradation: %v", health)
	}
	f.Shutdown()

	cfg.FS = nil
	f2, err := New(cfg)
	if err != nil {
		t.Fatalf("healthy restart: %v", err)
	}
	defer f2.Shutdown()
	for _, id := range acked {
		st, ok := f2.Lookup(id)
		if !ok {
			t.Fatalf("acked job %s lost across restart", id)
		}
		// Every recovered job either already has its verdict or will be
		// re-driven; it must never carry a fabricated one.
		if st.State == server.StateDone && st.Stdout == "" {
			t.Fatalf("job %s done with empty stdout after recovery: %+v", id, st)
		}
	}
}

// TestDiskChaosFleetTornTailRepairedOnReopen crash-tears the fleet
// ledger's tail and reopens: the torn frame is discarded with a repair,
// the intact prefix (and its verdicts) survives, and the frontend keeps
// admitting.
func TestDiskChaosFleetTornTailRepairedOnReopen(t *testing.T) {
	fb := newFakeBackend(t, true)
	cfg := testConfig(t, fb.url())
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec("void main() { int torn; }")
	id := mustSubmit(t, f, spec)
	want := awaitState(t, f, id, server.StateDone)
	f.Shutdown()

	path := filepath.Join(cfg.DataDir, LedgerName)
	fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	fh.Write([]byte("\xde\xadtorn-fleet-frame"))
	fh.Close()

	// The reopen also folds: the first replay's repair must still be
	// reported alongside the fold's outcome.
	cfg.LedgerSnapshotBytes = 1
	logs := &logCapture{}
	cfg.Logf = logs.logf
	f2, err := New(cfg)
	if err != nil {
		t.Fatalf("reopen over a torn tail: %v", err)
	}
	defer f2.Shutdown()
	if !logs.has("truncated to last good record") {
		t.Fatalf("torn-tail repair not logged: %q", logs.lines)
	}
	st, ok := f2.Lookup(id)
	if !ok || st.State != server.StateDone || st.Stdout != want.Stdout {
		t.Fatalf("verdict lost across torn-tail repair: ok=%v %+v", ok, st)
	}
	id2 := mustSubmit(t, f2, testSpec("void main() { int again; }"))
	awaitState(t, f2, id2, server.StateDone)
}
