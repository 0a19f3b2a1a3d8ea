package slam

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"predabs/internal/budget"
	"predabs/internal/cparse"
	"predabs/internal/faultinject"
	"predabs/internal/prover"
	"predabs/internal/trace"
)

// correlatedSrc needs CEGAR refinement (the classic SLAM example), so a
// starved run has real partial state to surface.
const correlatedSrc = `
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

func TestRunTimeoutRetreatsToUnknown(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Limits = budget.Limits{RunTimeout: time.Nanosecond}
	res, err := VerifySpec(correlatedSrc, lockSpec, "main", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Unknown {
		t.Fatalf("outcome %s under a 1ns deadline, want unknown", res.Outcome)
	}
	if res.LimitName != budget.LimitDeadline {
		t.Fatalf("LimitName=%q LimitStage=%q, want deadline", res.LimitName, res.LimitStage)
	}
	if len(res.Degradations) == 0 {
		t.Fatal("no degradations recorded")
	}
}

func TestCancelledContextRetreatsToUnknown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := VerifySpecCtx(ctx, correlatedSrc, lockSpec, "main", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Unknown || res.LimitName != budget.LimitDeadline {
		t.Fatalf("outcome %s limit %q, want unknown/deadline", res.Outcome, res.LimitName)
	}
}

func TestIterationExhaustionKeepsPartialResults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxIterations = 1
	res, err := VerifySpec(correlatedSrc, lockSpec, "main", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Unknown {
		t.Fatalf("outcome %s with 1 iteration, want unknown", res.Outcome)
	}
	if res.LimitStage != "slam" || res.LimitName != budget.LimitIterations {
		t.Fatalf("limit = %s/%s, want slam/iterations", res.LimitStage, res.LimitName)
	}
	if len(res.PartialInvariants) == 0 {
		t.Error("iteration exhaustion lost the last round's invariants")
	}
	lines := res.ExplainUnknown()
	if len(lines) == 0 {
		t.Fatal("ExplainUnknown returned nothing")
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "iterations") || !strings.Contains(joined, "partial invariants") {
		t.Errorf("ExplainUnknown missing limit or invariants:\n%s", joined)
	}
}

// A prover that crashes on its first query stands in for a decision
// procedure bug.
func TestStagePanicBecomesStageError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Prover = faultinject.New(prover.New(), faultinject.Config{PanicRate: 1})
	_, err := VerifySpec(correlatedSrc, lockSpec, "main", cfg)
	if err == nil {
		t.Fatal("panicking prover produced no error")
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T (%v), want *StageError", err, err)
	}
	if !se.Panicked || se.Stage != "abstract" {
		t.Fatalf("StageError = %+v, want panicked in stage abstract", se)
	}
	if !strings.Contains(err.Error(), "injected prover crash") {
		t.Errorf("panic value lost: %v", err)
	}
}

// panicSink crashes when the tracer writes the counterexample search's
// span, standing in for a bug in that search.
type panicSink struct{}

func (panicSink) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(`"cat":"bebop","name":"trace"`)) {
		panic("trace search exploded")
	}
	return len(p), nil
}

func TestTracePanicBecomesBebopStageError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tracer = trace.New(trace.Config{JSONL: panicSink{}})
	_, err := VerifySpec(correlatedSrc, lockSpec, "main", cfg)
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T (%v), want *StageError", err, err)
	}
	if !se.Panicked || se.Stage != "bebop" || !strings.Contains(err.Error(), "trace search exploded") {
		t.Fatalf("StageError = %v, want the panic in stage bebop", se)
	}
}

func TestCubeBudgetThreadedToAbstraction(t *testing.T) {
	// Seed enough predicates that the cube search has more than one
	// candidate, so a budget of 1 must truncate and log a degradation.
	// The truncated abstraction is weaker but sound, so any of the three
	// outcomes remains admissible; the test pins the plumbing.
	preds, err := cparse.ParsePredFile("main:\n  x == 0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.InitialPreds = preds
	cfg.Limits = budget.Limits{CubeBudget: 1}
	res, err := VerifySpec(correlatedSrc, lockSpec, "main", cfg)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range res.Degradations {
		if d.Stage == "abstract" && d.Limit == budget.LimitCubeBudget {
			found = true
		}
	}
	if !found {
		t.Fatalf("no abstract/cube-budget degradation recorded: %+v (outcome %s)",
			res.Degradations, res.Outcome)
	}
}
