package slam

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"predabs/internal/faultinject"
	"predabs/internal/prover"
)

// TestConcurrentCancellationNoGoroutineLeak cancels full pipeline runs at
// staggered points — including mid-cube-search with artificially slowed
// prover queries — and checks that every run returns a sound verdict and
// that no goroutine outlives its run. Designed to be run under -race (the
// Makefile's leakcheck target).
func TestConcurrentCancellationNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	for i := 0; i < 12; i++ {
		i := i
		t.Run(fmt.Sprintf("cancel-%02d", i), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()

			cfg := DefaultConfig()
			// Slow every prover query so the staggered cancel points below
			// land inside the cube search, not before or after it.
			cfg.Prover = faultinject.New(prover.New(), faultinject.Config{
				Seed:        int64(i),
				LatencyRate: 1,
				Latency:     200 * time.Microsecond,
			})

			done := make(chan struct{})
			go func() {
				defer close(done)
				// Stagger the cancellation point across iterations: from
				// before the first query to well inside the cube search.
				time.Sleep(time.Duration(i) * 300 * time.Microsecond)
				cancel()
			}()

			res, err := VerifySpecCtx(ctx, correlatedSrc, lockSpec, "main", cfg)
			<-done
			if err != nil {
				t.Fatalf("cancelled run errored: %v", err)
			}
			// A cancelled run may still finish with a genuine verdict if it
			// beat the cancel, but it must never claim Verified after being
			// degraded by the deadline.
			if res.Outcome == Verified && res.LimitName != "" {
				t.Fatalf("Verified claimed despite hitting limit %q in stage %q",
					res.LimitName, res.LimitStage)
			}
			if res.Outcome == Unknown && res.LimitName == "" && res.Iterations < cfg.MaxIterations {
				t.Fatalf("Unknown without a limit after %d iterations:\n%s",
					res.Iterations, strings.Join(res.ExplainUnknown(), "\n"))
			}
		})
	}

	// Every cancelling goroutine exits once its run returns; give the
	// scheduler a moment, then compare against the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDegradedReportDeterministic pins the partial-report determinism
// guarantee: with a fixed fault-injection seed the degraded run's entire
// observable report — outcome, limit attribution, degradation log,
// partial invariants, and the prover's counts behind them — is
// byte-identical across two runs, because every sound weakening is keyed
// on query content and budgets are spent on the canonical candidate
// order.
func TestDegradedReportDeterministic(t *testing.T) {
	report := func() string {
		cfg := DefaultConfig()
		cfg.MaxIterations = 3
		cfg.Limits.CubeBudget = 5
		cfg.Prover = faultinject.New(prover.New(), faultinject.Config{
			Seed:        42,
			TimeoutRate: 0.3,
		})
		res, err := VerifySpec(correlatedSrc, lockSpec, "main", cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "outcome: %s\n", res.Outcome)
		fmt.Fprintf(&b, "prover: calls=%d hits=%d model_answers=%d nodes=%d leaves=%d gave_up=%d\n",
			res.ProverCalls, res.CacheHits, res.ModelAnswers, res.SearchNodes, res.TheoryLeaves, res.ProverGaveUp)
		fmt.Fprintf(&b, "limit: %s/%s\n", res.LimitStage, res.LimitName)
		for _, d := range res.Degradations {
			fmt.Fprintf(&b, "degraded: %s %s %s x%d\n", d.Stage, d.Limit, d.Detail, d.Count)
		}
		for _, line := range res.ErrorTrace {
			fmt.Fprintf(&b, "trace: %s\n", line)
		}
		for _, line := range res.ExplainUnknown() {
			fmt.Fprintf(&b, "explain: %s\n", line)
		}
		return b.String()
	}

	first := report()
	if !strings.Contains(first, "degraded:") {
		t.Fatalf("run did not degrade; nothing to pin:\n%s", first)
	}
	if got := report(); got != first {
		t.Fatalf("degraded report differs between two runs:\n--- run 1\n%s\n--- run 2\n%s", first, got)
	}
}
