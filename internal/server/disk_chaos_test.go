// Disk-chaos tests for predabsd's two durable stores: the job ledger
// (sticky degradation sheds admissions, acked jobs survive a restart)
// and the per-job event logs (retention rotation keeps the resumable
// ?after=N contract; injected faults never lose an acked event).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"predabs/internal/faultinject"
)

func chaosSpec(i int) JobSpec {
	return JobSpec{Source: fmt.Sprintf("void main() { int x%d; }", i), Entry: "main", MaxIters: 10}
}

// TestDiskChaosLedgerDegradedShedsAndRecovers fills the disk under the
// ledger mid-stream: the daemon must flip to persistence-degraded,
// shed new admissions with ErrPersistDegraded, keep answering status
// for acked jobs, and — after a restart on a healthy disk — recover
// every acked job and no shed one.
func TestDiskChaosLedgerDegradedShedsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	// Write ops on the ledger: magic = 1, then 2 per admit frame; op 6
	// kills the third admit. Event logs and job.json are out of scope.
	ffs := faultinject.NewFS(nil, faultinject.FSConfig{
		FailWriteAfter: 6, Sticky: true, PathFilter: LedgerName,
	})
	s, err := New(Config{DataDir: dir, WorkerBin: "/nonexistent", FS: ffs})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	var acked []string
	var degraded error
	for i := 0; i < 6; i++ {
		id, err := s.Submit(chaosSpec(i))
		if err != nil {
			degraded = err
			break
		}
		acked = append(acked, id)
	}
	if degraded == nil {
		t.Fatalf("disk full never surfaced; acked %v", acked)
	}
	if !errors.Is(degraded, ErrPersistDegraded) {
		t.Fatalf("shed error = %v, want ErrPersistDegraded", degraded)
	}
	if len(acked) != 2 {
		t.Fatalf("acked %d jobs before the fault, want 2", len(acked))
	}
	// Sticky: every later submission sheds the same way, no crash.
	if _, err := s.Submit(chaosSpec(99)); !errors.Is(err, ErrPersistDegraded) {
		t.Fatalf("post-fault submit = %v, want ErrPersistDegraded", err)
	}
	// The daemon keeps serving what it acked.
	for _, id := range acked {
		if _, ok := s.Status(id); !ok {
			t.Fatalf("acked job %s lost while degraded", id)
		}
	}
	// The degradation is surfaced, not hidden: healthz says so.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var health map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if deg, _ := health["persistence_degraded"].(bool); !deg {
		t.Fatalf("healthz hides the degradation: %v", health)
	}
	s.Shutdown(t.Context())

	// Restart on a healthy disk: every acked job is back (resumable),
	// the shed ones never existed, and IDs do not recycle.
	s2, err := New(Config{DataDir: dir, WorkerBin: "/nonexistent"})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Shutdown(t.Context())
	for _, id := range acked {
		st, ok := s2.Status(id)
		if !ok {
			t.Fatalf("acked job %s lost across restart", id)
		}
		if st.State != StateQueued && st.State != StateRunning && st.State != StateRetrying && st.State != StateFailed {
			t.Fatalf("job %s in unexpected state %q", id, st.State)
		}
	}
	if got := len(s2.List()); got != len(acked) {
		t.Fatalf("restart sees %d jobs, want %d (no shed job may appear)", got, len(acked))
	}
	id, err := s2.Submit(chaosSpec(7))
	if err != nil {
		t.Fatalf("submit after recovery: %v", err)
	}
	for _, old := range acked {
		if id == old {
			t.Fatalf("job ID %s recycled after degraded restart", id)
		}
	}
}

// TestDiskChaosLedgerSnapshotFoldEquivalence pins the compaction
// contract: a folded ledger replays to exactly the state of its
// unbounded twin, the fold is idempotent, and a rename fault at the
// fold's commit point leaves the full log serving byte-identically.
func TestDiskChaosLedgerSnapshotFoldEquivalence(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, LedgerName)
	l, _, _, _, err := openLedger(nil, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]JobSpec{}
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("job-%06d", i+1)
		spec := chaosSpec(i)
		specs[id] = spec
		if err := l.Append(ledgerRecord{Type: "admit", ID: id, Spec: &spec}); err != nil {
			t.Fatal(err)
		}
	}
	// Jobs 1..6 reach verdicts (with some attempt history); 7 is live
	// with a burned attempt; 8 is freshly queued.
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("job-%06d", i+1)
		l.Append(ledgerRecord{Type: "attempt", ID: id, Attempt: 1})
		state, outcome := StateDone, "verified"
		if i%3 == 2 {
			state, outcome = StateFailed, ""
		}
		if err := l.Append(ledgerRecord{Type: "done", ID: id, State: state, Outcome: outcome}); err != nil {
			t.Fatal(err)
		}
	}
	l.Append(ledgerRecord{Type: "attempt", ID: "job-000007", Attempt: 1})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	twin := filepath.Join(dir, "twin.predabs")
	if err := os.WriteFile(twin, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Unbounded twin: the reference replay.
	lt, wantJobs, wantOrder, _, err := openLedger(nil, twin, 0)
	if err != nil {
		t.Fatal(err)
	}
	lt.Close()

	// Folded: same visible state, smaller log.
	lf, gotJobs, gotOrder, warnings, err := openLedger(nil, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lf.Reclaimed() <= 0 {
		t.Fatalf("fold did not happen: reclaimed=%d (warnings %v)",
			lf.Reclaimed(), warnings)
	}
	foldedSize := lf.Size()
	lf.Close()
	if len(gotJobs) != len(wantJobs) {
		t.Fatalf("folded replay has %d jobs, twin %d", len(gotJobs), len(wantJobs))
	}
	for id, want := range wantJobs {
		got := gotJobs[id]
		if got == nil {
			t.Fatalf("job %s lost by fold", id)
		}
		if got.hash != want.hash || got.done != want.done || got.state != want.state ||
			got.outcome != want.outcome || got.attempts != want.attempts || got.detail != want.detail {
			t.Fatalf("job %s diverged: folded %+v, twin %+v", id, got, want)
		}
		if want.done && got.spec.Source != "" {
			t.Fatalf("terminal job %s kept its spec text past the fold", id)
		}
		if !want.done && fmt.Sprint(got.spec) != fmt.Sprint(want.spec) {
			t.Fatalf("live job %s lost its spec: %+v", id, got.spec)
		}
	}
	if fmt.Sprint(pendingOrder(gotJobs, gotOrder)) != fmt.Sprint(pendingOrder(wantJobs, wantOrder)) {
		t.Fatalf("pending order diverged: %v vs %v",
			pendingOrder(gotJobs, gotOrder), pendingOrder(wantJobs, wantOrder))
	}
	if nextJobSeq(gotJobs) != nextJobSeq(wantJobs) {
		t.Fatalf("nextJobSeq diverged: %d vs %d", nextJobSeq(gotJobs), nextJobSeq(wantJobs))
	}

	// Idempotence: a third open finds nothing terminal left to elide.
	lf2, _, _, _, err := openLedger(nil, path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lf2.Reclaimed() != 0 || lf2.Size() != foldedSize {
		t.Fatalf("re-fold churned a stable ledger: reclaimed=%d size %d -> %d",
			lf2.Reclaimed(), foldedSize, lf2.Size())
	}
	lf2.Close()

	// Rename fault at the fold's commit point: the full twin stays
	// byte-identical and replays completely.
	ffs := faultinject.NewFS(nil, faultinject.FSConfig{FailRenameAfter: 1})
	lr, faultJobs, _, rwarn, err := openLedger(ffs, twin, 1)
	if err != nil {
		t.Fatalf("fold under rename fault must keep serving: %v", err)
	}
	lr.Close()
	if len(faultJobs) != len(wantJobs) {
		t.Fatalf("aborted fold lost jobs: %d vs %d", len(faultJobs), len(wantJobs))
	}
	found := false
	for _, w := range rwarn {
		if strings.Contains(w, "fold failed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("aborted fold not surfaced in warnings: %v", rwarn)
	}
	after, err := os.ReadFile(twin)
	if err != nil || !bytes.Equal(after, raw) {
		t.Fatalf("aborted fold changed the ledger bytes (err %v)", err)
	}
}

// TestDiskChaosLedgerQuarantineRenameFault pins the corrupt-ledger
// quarantine to the FS seam: when the rename that sets the evidence
// aside fails, New reports it instead of starting over the bad file.
func TestDiskChaosLedgerQuarantineRenameFault(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, LedgerName)
	if err := os.WriteFile(path, []byte("not a ledger at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	ffs := faultinject.NewFS(nil, faultinject.FSConfig{FailRenameAfter: 1})
	s, err := New(Config{DataDir: dir, WorkerBin: "/nonexistent", FS: ffs})
	if err == nil {
		s.Shutdown(context.Background())
		t.Fatal("quarantine rename fault swallowed: New succeeded")
	}
	if !strings.Contains(err.Error(), "quarantining corrupt ledger") {
		t.Fatalf("New error = %v, want the quarantine failure", err)
	}
	if raw, rerr := os.ReadFile(path); rerr != nil || string(raw) != "not a ledger at all" {
		t.Fatalf("corrupt ledger altered by a failed quarantine: %q, %v", raw, rerr)
	}
}

// TestDiskChaosEventsRotationKeepsResumableContract drives a job event
// log past its byte cap and checks the rotation shape end to end: a
// leading truncate marker naming the dropped range, a dense retained
// suffix, a clean ValidateEvents verdict, and cursors at or past the
// marker seeing no difference at all.
func TestDiskChaosEventsRotationKeepsResumableContract(t *testing.T) {
	dir := t.TempDir()
	const maxBytes = 1 << 10
	const total = 40
	for i := 1; i <= total; i++ {
		seq, err := appendJobEventFS(nil, dir, maxBytes, JobEvent{
			Type: EventProgress, Iter: i, Preds: i, Queries: int64(i), Engine: "cartesian",
		})
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if seq != uint64(i) {
			t.Fatalf("append %d assigned seq %d; sequences must stay dense across rotations", i, seq)
		}
	}
	info, err := os.Stat(filepath.Join(dir, EventsName))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() > maxBytes+512 {
		t.Fatalf("event log never rotated: %d bytes against a %d cap", info.Size(), maxBytes)
	}

	events, err := readJobEvents(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 || events[0].Type != EventTruncate {
		t.Fatalf("rotated log must open with a truncate marker; got %+v", events[:min(2, len(events))])
	}
	marker := events[0]
	if marker.Dropped != marker.Seq || marker.Dropped < 1 {
		t.Fatalf("marker dropped=%d seq=%d; dense-from-1 means they match", marker.Dropped, marker.Seq)
	}
	for i, ev := range events[1:] {
		if ev.Seq != marker.Seq+1+uint64(i) {
			t.Fatalf("retained stream not dense after the marker: %d at index %d", ev.Seq, i)
		}
	}
	if events[len(events)-1].Seq != total {
		t.Fatalf("newest event lost: last seq %d, want %d", events[len(events)-1].Seq, total)
	}

	// The exported NDJSON passes the tracelint validator.
	var buf bytes.Buffer
	for _, ev := range events {
		b, _ := json.Marshal(ev)
		buf.Write(b)
		buf.WriteByte('\n')
	}
	if n, err := ValidateEvents(&buf); err != nil {
		t.Fatalf("ValidateEvents rejected a rotated stream after %d records: %v", n, err)
	}

	// A cursor at the marker resumes marker-free and dense; one at the
	// head sees nothing.
	resumed, err := readJobEvents(dir, marker.Seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) == 0 || resumed[0].Type == EventTruncate || resumed[0].Seq != marker.Seq+1 {
		t.Fatalf("resume at %d = %+v; the marker must be invisible to a caught-up cursor",
			marker.Seq, resumed[:min(1, len(resumed))])
	}
	if tail, _ := readJobEvents(dir, total); len(tail) != 0 {
		t.Fatalf("cursor at head replayed %d events", len(tail))
	}
}

// TestDiskChaosEventsAppendFaults injects write faults into the event
// log: a torn append surfaces as an error and repairs on the next
// append (dense seqs, no lost ack), and a rename fault during rotation
// is absorbed — the oversized generation keeps serving until a later
// rotation lands.
func TestDiskChaosEventsAppendFaults(t *testing.T) {
	t.Run("short-write", func(t *testing.T) {
		dir := t.TempDir()
		for i := 1; i <= 3; i++ {
			if _, err := appendJobEventFS(nil, dir, 0, JobEvent{Type: EventProgress, Iter: i, Engine: "cartesian"}); err != nil {
				t.Fatal(err)
			}
		}
		ffs := faultinject.NewFS(nil, faultinject.FSConfig{ShortWriteAfter: 1, PathFilter: EventsName})
		if _, err := appendJobEventFS(ffs, dir, 0, JobEvent{Type: EventProgress, Iter: 4, Engine: "cartesian"}); err == nil {
			t.Fatal("torn append reported success")
		}
		// Next clean append repairs the tail and reuses the torn seq.
		seq, err := appendJobEventFS(nil, dir, 0, JobEvent{Type: EventProgress, Iter: 4, Engine: "cartesian"})
		if err != nil {
			t.Fatalf("append after torn tail: %v", err)
		}
		if seq != 4 {
			t.Fatalf("seq after repair = %d, want 4 (the unacked torn frame must not burn a seq)", seq)
		}
		events, err := readJobEvents(dir, 0)
		if err != nil || len(events) != 4 {
			t.Fatalf("replay after repair: %d events, err %v", len(events), err)
		}
	})
	t.Run("rotation-rename-fail", func(t *testing.T) {
		dir := t.TempDir()
		const maxBytes = 512
		ffs := faultinject.NewFS(nil, faultinject.FSConfig{FailRenameAfter: 1, PathFilter: EventsName})
		var last uint64
		for i := 1; i <= 20; i++ {
			seq, err := appendJobEventFS(ffs, dir, maxBytes, JobEvent{Type: EventProgress, Iter: i, Engine: "cartesian"})
			if err != nil {
				t.Fatalf("append %d under rename fault: %v (rotation is best-effort)", i, err)
			}
			last = seq
		}
		if last != 20 {
			t.Fatalf("acked seqs ended at %d, want 20", last)
		}
		if ffs.Injected()[faultinject.FSKindRenameFail] != 1 {
			t.Fatalf("rename fault never fired: %v", ffs.Injected())
		}
		// Every event is still there (the failed rotation dropped
		// nothing), and a later healthy rotation bounds the log again.
		events, err := readJobEvents(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if events[len(events)-1].Seq != 20 {
			t.Fatalf("lost the newest event after an aborted rotation: %+v", events[len(events)-1])
		}
		if _, err := appendJobEventFS(nil, dir, maxBytes, JobEvent{Type: EventProgress, Iter: 21, Engine: "cartesian"}); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(filepath.Join(dir, EventsName))
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() > maxBytes+256 {
			t.Fatalf("log still unbounded after a healthy rotation: %d bytes", info.Size())
		}
	})
}
