package abstract

import (
	"context"
	"testing"

	"predabs/internal/alias"
	"predabs/internal/bp"
	"predabs/internal/budget"
	"predabs/internal/cnorm"
	"predabs/internal/cparse"
	"predabs/internal/ctype"
	"predabs/internal/prover"
)

// degradePipeline runs Abstract with explicit options on the shared
// partition example, failing the test on any pipeline error.
func degradePipeline(t *testing.T, opts Options) *Result {
	t.Helper()
	prog, err := cparse.Parse(partitionSrc)
	if err != nil {
		t.Fatal(err)
	}
	info, err := ctype.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cnorm.Normalize(info)
	if err != nil {
		t.Fatal(err)
	}
	sections, err := cparse.ParsePredFile(partitionPreds)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Abstract(res, alias.Analyze(res), prover.New(), sections, opts)
	if err != nil {
		t.Fatalf("abstract: %v", err)
	}
	return out
}

// engines is the table input of the degradation tests: the cube budget
// and the cancellation checks live in the rounds both engines share.
var engines = []string{EngineCubes, EngineModels}

func TestCubeBudgetDegradesSoundly(t *testing.T) {
	for _, engine := range engines {
		t.Run(engine, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Engine = engine
			full := degradePipeline(t, opts)
			if len(full.Stats.DegradedProcs) != 0 {
				t.Fatalf("unlimited run degraded: %v", full.Stats.DegradedProcs)
			}

			bt := budget.New(context.Background(), budget.Limits{CubeBudget: 8}, nil)
			opts.Budget = bt
			lim := degradePipeline(t, opts)
			if len(lim.Stats.DegradedProcs) == 0 {
				t.Fatal("cube budget 8 did not degrade partition")
			}
			// The degraded program still resolves (Abstract errors otherwise)
			// and is strictly cheaper in prover work.
			if lim.Stats.CubesChecked > 8 {
				t.Fatalf("budget 8 run checked %d cubes", lim.Stats.CubesChecked)
			}
			if full.Stats.CubesChecked <= lim.Stats.CubesChecked {
				t.Fatalf("budgeted run not cheaper: full=%d limited=%d",
					full.Stats.CubesChecked, lim.Stats.CubesChecked)
			}
			ev, ok := bt.First()
			if !ok || ev.Stage != "abstract" || ev.Limit != budget.LimitCubeBudget {
				t.Fatalf("degradation log: %+v %v", ev, ok)
			}
		})
	}
}

// TestCubeBudgetPartialOutputDeterministic pins the satellite guarantee:
// the weaker, budget-truncated boolean program is byte-identical for
// every worker count, because the budget is spent on the canonical
// candidate order before the round fans out.
func TestCubeBudgetPartialOutputDeterministic(t *testing.T) {
	for _, engine := range engines {
		t.Run(engine, func(t *testing.T) {
			render := func(jobs int) string {
				opts := DefaultOptions()
				opts.Engine = engine
				opts.Budget = budget.New(context.Background(), budget.Limits{CubeBudget: 13}, nil)
				opts.Jobs = jobs
				return bp.Print(degradePipeline(t, opts).BP)
			}
			seq := render(1)
			par := render(8)
			if seq != par {
				t.Fatalf("budget-truncated output differs between j=1 and j=8:\n--- j=1\n%s\n--- j=8\n%s", seq, par)
			}
		})
	}
}

func TestCancelledContextDegradesEveryProc(t *testing.T) {
	for _, engine := range engines {
		t.Run(engine, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			opts := DefaultOptions()
			opts.Engine = engine
			opts.Budget = budget.New(ctx, budget.Limits{}, nil)
			out := degradePipeline(t, opts)
			if len(out.Stats.DegradedProcs) == 0 {
				t.Fatal("cancelled run did not record degradation")
			}
			// No prover-backed cube search should have run at all.
			if out.Stats.CubesChecked != 0 {
				t.Fatalf("cancelled run still checked %d cubes", out.Stats.CubesChecked)
			}
			ev, _ := opts.Budget.First()
			if ev.Limit != budget.LimitDeadline {
				t.Fatalf("degradation limit = %q, want deadline", ev.Limit)
			}
		})
	}
}
