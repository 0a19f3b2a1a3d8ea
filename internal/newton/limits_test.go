package newton

import (
	"context"
	"testing"

	"predabs/internal/budget"
)

func TestCancelledTrackerGivesUp(t *testing.T) {
	src := `
void main(void) {
  int x;
  x = 1;
  assert(x == 1);
}
`
	res, aa, pv, trace := setup(t, src, "", "main")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bt := budget.New(ctx, budget.Limits{}, nil)
	nres, err := Analyze(res, aa, pv, trace, nil, bt)
	if err != nil {
		t.Fatal(err)
	}
	if !nres.GaveUp || nres.Feasible {
		t.Fatalf("cancelled sweep: GaveUp=%v Feasible=%v, want gave-up", nres.GaveUp, nres.Feasible)
	}
	ev, ok := bt.First()
	if !ok || ev.Stage != "newton" || ev.Limit != budget.LimitDeadline {
		t.Fatalf("degradation log: %+v %v", ev, ok)
	}
}

func TestNilTrackerUnchanged(t *testing.T) {
	src := `
void main(void) {
  int x;
  x = 1;
  assert(x == 1);
}
`
	res, aa, pv, trace := setup(t, src, "", "main")
	nres, err := Analyze(res, aa, pv, trace, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nres.GaveUp || nres.Feasible {
		t.Fatalf("nil tracker changed verdict: GaveUp=%v Feasible=%v", nres.GaveUp, nres.Feasible)
	}
}
