package faultinject_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"predabs/internal/abstract"
	"predabs/internal/faultinject"
	"predabs/internal/prover"
	"predabs/internal/slam"
	"predabs/internal/soundness"
)

// chaosSeeds is the size of the fault-schedule matrix: every seed is a
// distinct deterministic schedule of prover timeouts, spurious failures,
// forced unknowns and latency spikes, replayed against the soundness
// oracle. The acceptance bar for the harness is ≥50 schedules.
const chaosSeeds = 60

// profiles are the fault mixes the matrix cycles through: single-mode
// pressure (pure timeouts, pure failures), mixed low-rate noise, and
// latency-heavy schedules that mostly reorder goroutines.
// Latency rates stay low: sleeps serialize on predicate-heavy subjects
// (a 0.5 rate over mark's ~10^5 queries is half a minute of pure sleep),
// and a few thousand reordering points per run already shake the
// goroutine schedule.
var profiles = []faultinject.Config{
	{TimeoutRate: 0.3},
	{UnknownRate: 0.2, FailureRate: 0.2},
	{LatencyRate: 0.05, TimeoutRate: 0.1},
	{TimeoutRate: 0.05, UnknownRate: 0.05, FailureRate: 0.05, LatencyRate: 0.02},
	{FailureRate: 0.6},
	{TimeoutRate: 0.9},
}

// TestChaosMatrix replays the soundness oracle under chaosSeeds distinct
// fault schedules. Injected faults only ever weaken the abstraction, so
// every concrete execution must stay inside Bebop's reachable sets no
// matter which queries the schedule kills — the tentpole's
// soundness-under-failure guarantee, executed.
func TestChaosMatrix(t *testing.T) {
	subjects := soundness.Subjects()
	var injected atomic.Int64
	for seed := 0; seed < chaosSeeds; seed++ {
		sub := subjects[seed%len(subjects)]
		// Fewer replays per schedule than the baseline suite: breadth
		// across schedules matters more than depth within one.
		sub.Runs = 25
		cfg := profiles[seed%len(profiles)]
		cfg.Seed = int64(seed)
		// Exercise both the sequential and the concurrent cube search,
		// and the model-enumeration engine's sessions.
		opts := abstract.DefaultOptions()
		if seed%2 == 1 {
			opts.Jobs = 4
		}
		if seed%4 >= 2 {
			opts.Engine = abstract.EngineModels
		}
		t.Run(fmt.Sprintf("seed%02d-%s", seed, sub.Name), func(t *testing.T) {
			t.Parallel()
			fp := faultinject.New(prover.New(), cfg)
			soundness.Check(t, sub, fp, opts)
			injected.Add(fp.InjectedTotal())
		})
	}
	t.Cleanup(func() {
		if n := injected.Load(); n == 0 {
			t.Error("chaos matrix injected zero faults — the harness tested nothing")
		} else {
			t.Logf("chaos matrix: %d faults injected across %d schedules", n, chaosSeeds)
		}
	})
}

// TestChaosSlamNeverVerifiesBuggyProgram pins the end-to-end guarantee:
// whatever queries a fault schedule kills, the weakened pipeline may get
// LESS precise (Unknown, or an error report it cannot fully confirm) but
// never claims a buggy program safe.
func TestChaosSlamNeverVerifiesBuggyProgram(t *testing.T) {
	const buggy = `
void main(int x) {
  if (x > 3) {
    assert(x <= 3);
  }
}
`
	for seed := 0; seed < 24; seed++ {
		cfg := profiles[seed%len(profiles)]
		cfg.Seed = int64(seed)
		scfg := slam.DefaultConfig()
		if seed%2 == 1 {
			scfg.Opts.Engine = abstract.EngineModels
		}
		scfg.Prover = faultinject.New(prover.New(), cfg)
		res, err := slam.Verify(buggy, "main", scfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Outcome == slam.Verified {
			t.Fatalf("seed %d: fault schedule made SLAM verify a buggy program", seed)
		}
	}
}
