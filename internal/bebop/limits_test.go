package bebop

import (
	"context"
	"testing"

	"predabs/internal/bp"
	"predabs/internal/budget"
)

// loopy is a boolean program whose fixpoint takes many worklist items:
// three variables cycled through a loop.
const loopy = `
void main() begin
  decl a, b, c;
  a := *;
  b := *;
  c := *;
 L:
  skip;
  a := b;
  b := c;
  c := !a;
  assert(a | b | c);
  goto L;
end`

func TestBDDNodeCeilingDegrades(t *testing.T) {
	prog, err := bp.Parse(loopy)
	if err != nil {
		t.Fatal(err)
	}
	bt := budget.New(context.Background(), budget.Limits{BDDMaxNodes: 1}, nil)
	c, err := CheckLimited(prog, "main", nil, bt)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Degraded || c.DegradeReason != budget.LimitBDDNodes {
		t.Fatalf("Degraded=%v reason=%q, want bdd-max-nodes", c.Degraded, c.DegradeReason)
	}
	ev, ok := bt.First()
	if !ok || ev.Stage != "bebop" || ev.Limit != budget.LimitBDDNodes {
		t.Fatalf("degradation log: %+v %v", ev, ok)
	}
	// A degraded, failure-free check proves nothing — the caller must map
	// it to Unknown; here we just confirm the truncation kept whatever
	// failures it had found (possibly none) and terminated.
}

func TestCancelledContextStopsFixpoint(t *testing.T) {
	prog, err := bp.Parse(loopy)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	bt := budget.New(ctx, budget.Limits{}, nil)
	c, err := CheckLimited(prog, "main", nil, bt)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Degraded || c.DegradeReason != budget.LimitDeadline {
		t.Fatalf("Degraded=%v reason=%q, want deadline", c.Degraded, c.DegradeReason)
	}
	if c.Iterations != 0 {
		t.Fatalf("pre-cancelled run still ran %d iterations", c.Iterations)
	}
}

func TestZeroLimitsUnchanged(t *testing.T) {
	prog, err := bp.Parse(loopy)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CheckLimited(prog, "main", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Degraded {
		t.Fatal("unlimited run degraded")
	}
	if c.Iterations == 0 {
		t.Fatal("fixpoint did not run")
	}
}
