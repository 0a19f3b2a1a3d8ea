package bebop

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"predabs/internal/bp"
	"predabs/internal/bpinterp"
)

// replayTrace validates a trace by driving the interpreter... here we
// validate structurally: consecutive steps are CFG-connected and the
// final step is the failing assert.
func validateTrace(t *testing.T, c *Checker, trace []Step, f Failure) {
	t.Helper()
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	last := trace[len(trace)-1]
	if last.Proc != f.Proc || last.Stmt != f.Stmt {
		t.Fatalf("trace ends at %s:%d, want %s:%d", last.Proc, last.Stmt, f.Proc, f.Stmt)
	}
	if last.BP.Kind != bp.Assert {
		t.Fatalf("trace must end at an assert, got %s", bp.StmtString(last.BP))
	}
	// Every step's state must be inside Bebop's reachable set.
	for i, step := range trace {
		if !c.StateReachable(step.Proc, step.Stmt, step.State) {
			t.Fatalf("step %d (%s:%d) state outside reachable set", i, step.Proc, step.Stmt)
		}
	}
}

func TestTraceStraightLine(t *testing.T) {
	c := check(t, `
void main() begin
  decl a;
  a := *;
  assert(a);
  return;
end`, "main")
	f, bad := c.ErrorReachable()
	if !bad {
		t.Fatal("expected failure")
	}
	trace, ok := c.Trace("main", f)
	if !ok {
		t.Fatal("no trace found")
	}
	validateTrace(t, c, trace, f)
	// The state at the assert must have a=false.
	if trace[len(trace)-1].State["a"] {
		t.Fatal("assert state should have a=false")
	}
}

func TestTraceThroughBranches(t *testing.T) {
	c := check(t, `
void main() begin
  decl a, b;
  a := *;
  if (a) then
    b := true;
  else
    b := false;
  fi
  assert(b);
  return;
end`, "main")
	f, bad := c.ErrorReachable()
	if !bad {
		t.Fatal("expected failure via else branch")
	}
	trace, ok := c.Trace("main", f)
	if !ok {
		t.Fatal("no trace")
	}
	validateTrace(t, c, trace, f)
}

func TestTraceThroughCall(t *testing.T) {
	c := check(t, `
decl g;

void poke(x) begin
  g := x;
  return;
end

void main() begin
  decl v;
  v := *;
  poke(v);
  assert(g);
  return;
end`, "main")
	f, bad := c.ErrorReachable()
	if !bad {
		t.Fatal("expected failure when v=false")
	}
	trace, ok := c.Trace("main", f)
	if !ok {
		t.Fatal("no trace")
	}
	validateTrace(t, c, trace, f)
	// The trace must descend into poke.
	sawCallee := false
	for _, s := range trace {
		if s.Proc == "poke" {
			sawCallee = true
		}
	}
	if !sawCallee {
		t.Fatal("trace does not descend into the callee")
	}
}

func TestTraceThroughLoop(t *testing.T) {
	c := check(t, `
void main() begin
  decl a, n;
  a := false;
  n := true;
  while (n) do
    n := *;
    a := true;
  od
  assert(!a);
  return;
end`, "main")
	f, bad := c.ErrorReachable()
	if !bad {
		t.Fatal("expected failure (loop body always runs once)")
	}
	trace, ok := c.Trace("main", f)
	if !ok {
		t.Fatal("no trace")
	}
	validateTrace(t, c, trace, f)
}

func TestNoTraceWhenSafe(t *testing.T) {
	c := check(t, `
void main() begin
  decl a;
  a := true;
  assert(a);
  return;
end`, "main")
	if _, bad := c.ErrorReachable(); bad {
		t.Fatal("program is safe")
	}
}

// The trace must be replayable in the concrete interpreter: scripted
// choices derived from the trace drive the interpreter to the failure.
func TestTraceStatesMatchInterpreterSemantics(t *testing.T) {
	src := `
void main() begin
  decl a, b;
  a := *;
  b := choose(a, false);
  assert(!b | !a);
  return;
end`
	c := check(t, src, "main")
	f, bad := c.ErrorReachable()
	if !bad {
		t.Fatal("expected failure when a=true (b becomes true)")
	}
	trace, ok := c.Trace("main", f)
	if !ok {
		t.Fatal("no trace")
	}
	validateTrace(t, c, trace, f)
	// And confirm the interpreter can fail too.
	prog := bp.MustParse(src)
	found := false
	for seed := int64(0); seed < 50 && !found; seed++ {
		in := &bpinterp.Interp{Prog: prog, Choice: bpinterp.RandChooser{R: rand.New(rand.NewSource(seed))}}
		res, err := in.Run("main")
		if err != nil {
			t.Fatal(err)
		}
		if res.Status == bpinterp.AssertFailed {
			found = true
		}
	}
	if !found {
		t.Fatal("interpreter cannot reproduce the failure")
	}
}

// chainProgram builds n procedures p0 → p1 → … → p(n-1), where only the
// last holds a failing assert.
func chainProgram(n int) string {
	var b strings.Builder
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&b, "void p%d() begin\n  p%d();\n  return;\nend\n\n", i, i+1)
	}
	fmt.Fprintf(&b, "void p%d() begin\n  assert(false);\n  return;\nend\n", n-1)
	return b.String()
}

// The trace search descends at most 64 calls below the entry: a failure
// 64 calls deep has a trace, one 65 calls deep has none (rather than a
// partial one), though Bebop still reports it.
func TestTraceDepthBound(t *testing.T) {
	for _, tc := range []struct {
		n     int
		found bool
	}{{65, true}, {66, false}} {
		c := check(t, chainProgram(tc.n), "p0")
		f, bad := c.ErrorReachable()
		if !bad {
			t.Fatalf("chain of %d: Bebop misses the failing assert", tc.n)
		}
		trace, ok := c.Trace("p0", f)
		if ok != tc.found {
			t.Fatalf("chain of %d: trace found = %v, want %v", tc.n, ok, tc.found)
		}
		if !ok {
			if trace != nil {
				t.Fatalf("chain of %d: partial trace of %d steps", tc.n, len(trace))
			}
			continue
		}
		validateTrace(t, c, trace, f)
		if len(trace) != tc.n {
			t.Fatalf("chain of %d: trace has %d steps, want one per call plus the assert", tc.n, len(trace))
		}
	}
}
