// White-box tests for the durable job ledger: replay folding, sequence
// continuation, corrupt-ledger quarantine, and adoption of a result that
// an earlier daemon crashed before recording.
package server

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestLedgerReplayFolding(t *testing.T) {
	path := filepath.Join(t.TempDir(), LedgerName)
	l, jobs, _, _, err := openLedger(nil, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("fresh ledger replayed %d jobs", len(jobs))
	}
	spec := JobSpec{Source: "void main() {}", Entry: "main", MaxIters: 10}
	// job 1: finished. job 2: two attempts, still in flight. job 7: queued.
	for _, rec := range []ledgerRecord{
		{Type: "admit", ID: "job-000001", Spec: &spec},
		{Type: "attempt", ID: "job-000001", Attempt: 1},
		{Type: "done", ID: "job-000001", State: StateDone, Outcome: "verified"},
		{Type: "admit", ID: "job-000002", Spec: &spec},
		{Type: "attempt", ID: "job-000002", Attempt: 1},
		{Type: "attempt", ID: "job-000002", Attempt: 2},
		{Type: "admit", ID: "job-000007", Spec: &spec},
	} {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, jobs, order, warnings, err := openLedger(nil, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(warnings) != 0 {
		t.Fatalf("clean ledger produced warnings: %v", warnings)
	}
	if len(jobs) != 3 {
		t.Fatalf("replayed %d jobs, want 3", len(jobs))
	}
	j1 := jobs["job-000001"]
	if !j1.done || j1.state != StateDone || j1.outcome != "verified" {
		t.Fatalf("job-000001 folded to %+v", j1)
	}
	j2 := jobs["job-000002"]
	if j2.done || j2.attempts != 2 || j2.spec.Source != spec.Source {
		t.Fatalf("job-000002 folded to %+v", j2)
	}
	if got := pendingOrder(jobs, order); len(got) != 2 || got[0] != "job-000002" || got[1] != "job-000007" {
		t.Fatalf("pendingOrder = %v", got)
	}
	if got := nextJobSeq(jobs); got != 8 {
		t.Fatalf("nextJobSeq = %d, want 8", got)
	}
}

func TestCorruptLedgerQuarantinedNotDeleted(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, LedgerName)
	if err := os.WriteFile(path, []byte("not a ledger at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{DataDir: dir, WorkerBin: "/nonexistent"})
	if err != nil {
		t.Fatalf("corrupt ledger must not prevent startup: %v", err)
	}
	defer s.Shutdown(context.Background())
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt ledger not quarantined: %v", err)
	}
	raw, err := os.ReadFile(path + ".corrupt")
	if err != nil || string(raw) != "not a ledger at all" {
		t.Fatalf("quarantined evidence altered: %q, %v", raw, err)
	}
}

// TestAdoptionOfOrphanedResult simulates a daemon that died after its
// worker wrote result.json but before the ledger recorded "done": the
// restarted daemon must adopt the finished result instead of re-running
// the job — WorkerBin points at a nonexistent binary, so any attempt to
// re-execute would fail the test.
func TestAdoptionOfOrphanedResult(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{Source: "void main() {}", Entry: "main", MaxIters: 10}
	jobDir := filepath.Join(dir, "jobs", "job-000001")
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(filepath.Join(jobDir, jobSpecFile), spec); err != nil {
		t.Fatal(err)
	}
	orphan := WorkerResult{SpecHash: SpecHash(spec), ExitCode: 0, Outcome: "verified", Stdout: "RESULT: verified (orphaned)\n"}
	if err := writeFileAtomic(filepath.Join(jobDir, resultFile), orphan); err != nil {
		t.Fatal(err)
	}
	l, _, _, _, err := openLedger(nil, filepath.Join(dir, LedgerName), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(ledgerRecord{Type: "admit", ID: "job-000001", Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{DataDir: dir, WorkerBin: "/nonexistent", Retries: 0})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	deadline := time.Now().Add(10 * time.Second)
	for {
		st, ok := s.Status("job-000001")
		if !ok {
			t.Fatal("replayed job missing from status map")
		}
		if st.State == StateDone {
			if st.Stdout != orphan.Stdout || st.Outcome != "verified" {
				t.Fatalf("adopted result mangled: %+v", st)
			}
			break
		}
		if st.State == StateFailed {
			t.Fatalf("orphaned result not adopted; job failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if c := s.CounterSnapshot(); c.Adopted != 1 || c.Resumed != 1 {
		t.Fatalf("counters: %+v", c)
	}
}

// TestStaleResultFromRecycledJobIDNotAdopted covers the ID-recycling
// hazard: after a ledger quarantine (or manual deletion) job IDs restart
// at job-000001 while old job directories — which keep result.json
// forever for done jobs — survive. A recycled ID whose directory holds a
// different program's result must not adopt it; with no runnable worker
// the job can only fail, never report the stale "verified".
func TestStaleResultFromRecycledJobIDNotAdopted(t *testing.T) {
	dir := t.TempDir()
	staleSpec := JobSpec{Source: "void main(int x) { assert(x > 0); }", Entry: "main", MaxIters: 10}
	spec := JobSpec{Source: "void main() {}", Entry: "main", MaxIters: 10}
	jobDir := filepath.Join(dir, "jobs", "job-000001")
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := WorkerResult{SpecHash: SpecHash(staleSpec), ExitCode: 0, Outcome: "verified", Stdout: "RESULT: verified (stale)\n"}
	if err := writeFileAtomic(filepath.Join(jobDir, resultFile), stale); err != nil {
		t.Fatal(err)
	}
	// A fresh ledger (the quarantine aftermath) admits an unrelated spec
	// under the recycled ID.
	l, _, _, _, err := openLedger(nil, filepath.Join(dir, LedgerName), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(ledgerRecord{Type: "admit", ID: "job-000001", Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{DataDir: dir, WorkerBin: "/nonexistent", Retries: 0})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())

	deadline := time.Now().Add(10 * time.Second)
	for {
		st, ok := s.Status("job-000001")
		if !ok {
			t.Fatal("replayed job missing from status map")
		}
		if st.State == StateDone {
			t.Fatalf("stale result of a different program adopted: %+v", st)
		}
		if st.State == StateFailed {
			break // the only sound end for an unrunnable worker
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if c := s.CounterSnapshot(); c.Adopted != 0 {
		t.Fatalf("stale result counted as adopted: %+v", c)
	}
}

// TestAdmitScrubsRecycledJobDir checks admission cleans a recycled job
// directory of every artifact a previous occupant left behind, so the
// new job cannot resume from (or be credited with) foreign state.
func TestAdmitScrubsRecycledJobDir(t *testing.T) {
	dir := t.TempDir()
	jobDir := filepath.Join(dir, "jobs", "job-000001")
	if err := os.MkdirAll(filepath.Join(jobDir, stateDirName), 0o755); err != nil {
		t.Fatal(err)
	}
	leftovers := []string{resultFile, workerLogFile, traceFile, reportFile}
	for _, name := range leftovers {
		if err := os.WriteFile(filepath.Join(jobDir, name), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(jobDir, stateDirName, "journal.predabs"), []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{DataDir: dir, WorkerBin: "/nonexistent"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background()) // never started: no worker races the checks

	id, err := s.Submit(JobSpec{Source: "void main() {}"})
	if err != nil {
		t.Fatal(err)
	}
	if id != "job-000001" {
		t.Fatalf("fresh ledger assigned %s, want the recycled job-000001", id)
	}
	for _, name := range leftovers {
		if _, err := os.Stat(filepath.Join(jobDir, name)); !os.IsNotExist(err) {
			t.Errorf("stale %s survived admission (err %v)", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(jobDir, stateDirName)); !os.IsNotExist(err) {
		t.Errorf("stale checkpoint state dir survived admission (err %v)", err)
	}
	if _, err := os.Stat(filepath.Join(jobDir, jobSpecFile)); err != nil {
		t.Errorf("admitted job has no %s: %v", jobSpecFile, err)
	}
}

// TestNextJobSeqBeyondSixDigits pins the ID parse past the zero-padded
// width: job-1000000 must advance the sequence, not wrap it back into
// live IDs.
func TestNextJobSeqBeyondSixDigits(t *testing.T) {
	jobs := map[string]*replayedJob{
		"job-000002":  {},
		"job-1000000": {},
		"not-a-job":   {},
	}
	if got := nextJobSeq(jobs); got != 1000001 {
		t.Fatalf("nextJobSeq = %d, want 1000001", got)
	}
}

// TestLedgerPreemptRefundsAttempt checks the shutdown-preemption record
// folds the attempt count back down, so an attempt the daemon itself
// SIGKILLed during a drain does not burn retry budget.
func TestLedgerPreemptRefundsAttempt(t *testing.T) {
	path := filepath.Join(t.TempDir(), LedgerName)
	l, _, _, _, err := openLedger(nil, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Source: "void main() {}", Entry: "main", MaxIters: 10}
	for _, rec := range []ledgerRecord{
		{Type: "admit", ID: "job-000001", Spec: &spec},
		{Type: "attempt", ID: "job-000001", Attempt: 1},
		{Type: "attempt", ID: "job-000001", Attempt: 2},
		{Type: "preempt", ID: "job-000001", Attempt: 2},
	} {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, jobs, order, _, err := openLedger(nil, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	j := jobs["job-000001"]
	if j == nil || j.done || j.attempts != 1 {
		t.Fatalf("preempted job folded to %+v, want pending with 1 attempt", j)
	}
	if got := pendingOrder(jobs, order); len(got) != 1 || got[0] != "job-000001" {
		t.Fatalf("pendingOrder = %v", got)
	}
}
