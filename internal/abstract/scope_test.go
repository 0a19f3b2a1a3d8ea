package abstract

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"predabs/internal/alias"
	"predabs/internal/bp"
	"predabs/internal/budget"
	"predabs/internal/cnorm"
	"predabs/internal/cparse"
	"predabs/internal/ctype"
	"predabs/internal/prover"
)

// sharedScopeSrc has three procedures on the globals-only scope. clear
// repeats every transfer function of step after one assignment of its
// own. Unlimited, step checks 428 cubes and clear 524, so a budget in
// between lets step finish and runs clear dry among step's results:
// the budget runs out inside a shared scope.
const sharedScopeSrc = `
int g; int h; int k;
void step() {
  g = h + 1;
  if (g > k) { h = g; } else { k = h; }
}
void clear() {
  k = 0;
  g = h + 1;
  if (g > k) { h = g; } else { k = h; }
}
void main() { step(); clear(); }
`

const sharedScopePreds = `
global:
  g > k, h > 0, g == h, k == 0
`

// reuseBudgetGolden pins, per engine and cube budget, the boolean
// program (its SHA-256) and the degraded procedures of sharedScopeSrc.
// Regenerate with UPDATE_GOLDEN=1 go test -run TestCubeBudgetInSharedScope.
const reuseBudgetGolden = "testdata/reuse_budget.golden"

// TestCubeBudgetInSharedScope sweeps the cube budget over a program
// whose procedures share one predicate list and pins what each budget
// produces, so that a procedure's budget reads the same whether its
// transfer functions are searched or served from an earlier procedure.
func TestCubeBudgetInSharedScope(t *testing.T) {
	var b strings.Builder
	stepOnly := false
	for _, engine := range engines {
		for limit := 0; limit <= 540; limit += 6 {
			opts := DefaultOptions()
			opts.Engine = engine
			opts.Budget = budget.New(context.Background(), budget.Limits{CubeBudget: limit}, nil)
			out, _ := pipeline(t, sharedScopeSrc, sharedScopePreds, opts)
			text := bp.Print(out.BP)
			degraded := strings.Join(out.Stats.DegradedProcs, ",")
			if degraded == "clear" {
				stepOnly = true
			}
			fmt.Fprintf(&b, "%s budget=%d degraded=%s sha256=%x\n",
				engine, limit, degraded, sha256.Sum256([]byte(text)))
		}
	}
	if !stepOnly {
		t.Error("no budget degrades clear alone")
	}
	got := b.String()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(reuseBudgetGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(reuseBudgetGolden)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("got  %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}

// TestGivenUpSearchesAreNotReused: when every prover query gives up (the
// prover's run is cancelled, the abstraction's is not, so no procedure
// degrades), no search result is stored, so none is served: a query
// that timed out might not on a rerun.
func TestGivenUpSearchesAreNotReused(t *testing.T) {
	prog, err := cparse.Parse(sharedScopeSrc)
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
	sections, err := cparse.ParsePredFile(sharedScopePreds)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pv := prover.New()
	pv.Budget = budget.New(ctx, budget.Limits{}, nil)
	out, err := Abstract(res, alias.Analyze(res), pv, sections, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if pv.GaveUp() == 0 || len(out.Stats.DegradedProcs) != 0 {
		t.Fatalf("%d queries gave up, degraded %v; want some and none", pv.GaveUp(), out.Stats.DegradedProcs)
	}
	if out.Stats.FVReused != 0 || out.Stats.EnforceReused != 0 {
		t.Errorf("served %d F_V results and %d enforce invariants from given-up searches",
			out.Stats.FVReused, out.Stats.EnforceReused)
	}
}
