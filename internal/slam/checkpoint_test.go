package slam

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"predabs/internal/checkpoint"
)

// ckptCorrelatedSrc needs CEGAR refinement (≥2 iterations), so an
// interrupted run has a committed checkpoint to resume from.
const ckptCorrelatedSrc = `
void AcquireLock(void) { }
void ReleaseLock(void) { }

void main(int x) {
  if (x == 0) {
    AcquireLock();
  }
  if (x == 0) {
    ReleaseLock();
  }
}
`

func ckptKey() checkpoint.CompatKey {
	return checkpoint.CompatKey{
		Tool: "slam-test", Version: "test", Program: ckptCorrelatedSrc,
		Spec: lockSpec, Entry: "main",
	}
}

// sameDeterministicResult compares every field the byte-identical-resume
// guarantee covers (wall times and FinalBP pointers excluded).
func sameDeterministicResult(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Outcome != want.Outcome {
		t.Errorf("Outcome = %s, want %s", got.Outcome, want.Outcome)
	}
	if got.Iterations != want.Iterations {
		t.Errorf("Iterations = %d, want %d", got.Iterations, want.Iterations)
	}
	if got.PredCount != want.PredCount {
		t.Errorf("PredCount = %d, want %d", got.PredCount, want.PredCount)
	}
	if !reflect.DeepEqual(got.Predicates, want.Predicates) {
		t.Errorf("Predicates = %v, want %v", got.Predicates, want.Predicates)
	}
	if got.ProverCalls != want.ProverCalls {
		t.Errorf("ProverCalls = %d, want %d", got.ProverCalls, want.ProverCalls)
	}
	if got.CacheHits != want.CacheHits {
		t.Errorf("CacheHits = %d, want %d", got.CacheHits, want.CacheHits)
	}
	if got.CheckIterations != want.CheckIterations {
		t.Errorf("CheckIterations = %d, want %d", got.CheckIterations, want.CheckIterations)
	}
}

func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	// Reference: one uninterrupted run, no checkpointing.
	cfg := DefaultConfig()
	want, err := VerifySpec(ckptCorrelatedSrc, lockSpec, "main", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Outcome != Verified || want.Iterations < 2 {
		t.Fatalf("reference run: outcome %s after %d iterations, need Verified after ≥2",
			want.Outcome, want.Iterations)
	}

	// Interrupted run: the iteration budget stops the loop after the
	// first (refining) iteration — from the journal's point of view,
	// indistinguishable from a crash after commit 1.
	dir := t.TempDir()
	m1, err := checkpoint.Create(nil, dir, ckptKey())
	if err != nil {
		t.Fatal(err)
	}
	cut := cfg
	cut.MaxIterations = 1
	cut.Checkpoint = m1
	partial, err := VerifySpec(ckptCorrelatedSrc, lockSpec, "main", cut)
	if err != nil {
		t.Fatal(err)
	}
	m1.Close()
	if partial.Outcome != Unknown {
		t.Fatalf("interrupted run: outcome %s, want unknown (iteration budget)", partial.Outcome)
	}
	if m1.Commits() == 0 {
		t.Fatal("interrupted run committed nothing — no refinement happened?")
	}

	// Resume with the full budget: must reproduce the reference run.
	m2, err := checkpoint.Open(nil, dir, ckptKey(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	snap := m2.Snapshot()
	if snap == nil || snap.Iter != 1 {
		t.Fatalf("snapshot = %+v, want iteration 1", snap)
	}
	if len(snap.Cache) == 0 {
		t.Fatal("no prover verdicts journaled")
	}
	res := cfg
	res.Checkpoint = m2
	got, err := VerifySpec(ckptCorrelatedSrc, lockSpec, "main", res)
	if err != nil {
		t.Fatal(err)
	}
	sameDeterministicResult(t, got, want)
}

func TestCheckpointResumeCompletedRun(t *testing.T) {
	cfg := DefaultConfig()
	dir := t.TempDir()
	key := ckptKey()
	m1, err := checkpoint.Create(nil, dir, key)
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := cfg
	cfg1.Checkpoint = m1
	want, err := VerifySpec(ckptCorrelatedSrc, lockSpec, "main", cfg1)
	if err != nil {
		t.Fatal(err)
	}
	m1.Close()

	// Re-running a completed run replays the last refinement and lands
	// on the same verdict.
	m2, err := checkpoint.Open(nil, dir, key, false)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if snap := m2.Snapshot(); snap == nil || snap.Outcome != "verified" {
		t.Fatalf("snapshot = %+v, want recorded verified outcome", snap)
	}
	cfg2 := cfg
	cfg2.Checkpoint = m2
	got, err := VerifySpec(ckptCorrelatedSrc, lockSpec, "main", cfg2)
	if err != nil {
		t.Fatal(err)
	}
	sameDeterministicResult(t, got, want)
}

func TestCheckpointReadOnlyResume(t *testing.T) {
	cfg := DefaultConfig()
	dir := t.TempDir()
	key := ckptKey()
	m1, err := checkpoint.Create(nil, dir, key)
	if err != nil {
		t.Fatal(err)
	}
	cut := cfg
	cut.MaxIterations = 1
	cut.Checkpoint = m1
	if _, err := VerifySpec(ckptCorrelatedSrc, lockSpec, "main", cut); err != nil {
		t.Fatal(err)
	}
	m1.Close()
	path := filepath.Join(dir, checkpoint.JournalName)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// -no-persist: warm-start from the journal but never write to it.
	ro, err := checkpoint.Open(nil, dir, key, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	cfg2 := cfg
	cfg2.Checkpoint = ro
	got, err := VerifySpec(ckptCorrelatedSrc, lockSpec, "main", cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Outcome != Verified {
		t.Errorf("read-only resume: outcome %s, want verified", got.Outcome)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("read-only resume modified the journal")
	}
}
