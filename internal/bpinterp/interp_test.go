package bpinterp

import (
	"math/rand"
	"testing"

	"predabs/internal/bp"
)

func run(t *testing.T, src, entry string, seed int64) *Result {
	t.Helper()
	prog, err := bp.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	in := &Interp{Prog: prog, Choice: RandChooser{R: rand.New(rand.NewSource(seed))}}
	res, err := in.Run(entry)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDeterministicAssign(t *testing.T) {
	src := `
void main() begin
  decl a, b;
  a := true;
  b := !a;
  assert(a & !b);
  return;
end`
	for seed := int64(0); seed < 20; seed++ {
		res := run(t, src, "main", seed)
		if res.Status != Completed {
			t.Fatalf("seed %d: %s", seed, res.Status)
		}
	}
}

func TestAssertFailureDetected(t *testing.T) {
	src := `
void main() begin
  decl a;
  a := true;
  assert(!a);
  return;
end`
	res := run(t, src, "main", 1)
	if res.Status != AssertFailed || res.FailProc != "main" {
		t.Fatalf("got %s at %s:%d", res.Status, res.FailProc, res.FailStmt)
	}
}

func TestAssumeBlocks(t *testing.T) {
	src := `
void main() begin
  decl a;
  a := true;
  assume(!a);
  assert(false);
  return;
end`
	for seed := int64(0); seed < 20; seed++ {
		res := run(t, src, "main", seed)
		if res.Status != Blocked {
			t.Fatalf("seed %d: %s (assert must be unreachable)", seed, res.Status)
		}
	}
}

func TestParallelAssignmentIsSimultaneous(t *testing.T) {
	src := `
void main() begin
  decl a, b;
  a := true;
  b := false;
  a, b := b, a;
  assert(!a & b);
  return;
end`
	res := run(t, src, "main", 3)
	if res.Status != Completed {
		t.Fatalf("swap failed: %s", res.Status)
	}
}

func TestChooseSemantics(t *testing.T) {
	src := `
void main() begin
  decl a, b, c;
  a := choose(true, false);
  b := choose(false, true);
  assert(a & !b);
  c := choose(false, false);
  return;
end`
	sawTrue, sawFalse := false, false
	for seed := int64(0); seed < 40; seed++ {
		prog := bp.MustParse(src)
		in := &Interp{Prog: prog, Choice: RandChooser{R: rand.New(rand.NewSource(seed))}}
		res, err := in.Run("main")
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Completed {
			t.Fatalf("seed %d: %s", seed, res.Status)
		}
		_ = sawTrue
		_ = sawFalse
	}
}

func TestCallsAndReturns(t *testing.T) {
	src := `
decl g;

bool<2> pair(x) begin
  return x, !x;
end

void main() begin
  decl a, b;
  a, b := pair(true);
  assert(a & !b);
  g := a;
  flip();
  assert(!g);
  return;
end

void flip() begin
  g := !g;
  return;
end`
	for seed := int64(0); seed < 10; seed++ {
		res := run(t, src, "main", seed)
		if res.Status != Completed {
			t.Fatalf("seed %d: %s", seed, res.Status)
		}
	}
}

func TestEnforceFiltersStates(t *testing.T) {
	// enforce !(a & b): executions where the assignment makes both true
	// are blocked, so the assert can never fire.
	src := `
void main() begin
  decl a, b;
  enforce !(a & b);
  a := *;
  b := *;
  assert(!(a & b));
  return;
end`
	for seed := int64(0); seed < 50; seed++ {
		res := run(t, src, "main", seed)
		if res.Status == AssertFailed {
			t.Fatalf("seed %d: enforce failed to filter", seed)
		}
	}
}

func TestGotoNondeterminism(t *testing.T) {
	src := `
void main() begin
  decl a;
  goto L1, L2;
 L1:
  a := true;
  goto done;
 L2:
  a := false;
  goto done;
 done:
  return;
end`
	saw := map[Status]bool{}
	for seed := int64(0); seed < 30; seed++ {
		res := run(t, src, "main", seed)
		saw[res.Status] = true
		if res.Status != Completed {
			t.Fatalf("seed %d: %s", seed, res.Status)
		}
	}
}

func TestRecursionWithFuel(t *testing.T) {
	src := `
void loop() begin
  loop();
  return;
end`
	prog := bp.MustParse(src)
	in := &Interp{Prog: prog, Choice: RandChooser{R: rand.New(rand.NewSource(1))}, MaxSteps: 500}
	res, err := in.Run("loop")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != OutOfFuel {
		t.Fatalf("got %s, want out-of-fuel", res.Status)
	}
}

// ScriptChooser replays a fixed sequence of choices (then zeroes).
type ScriptChooser struct {
	Script []int
	pos    int
}

// Choose returns the next scripted choice.
func (c *ScriptChooser) Choose(n int) int {
	if c.pos >= len(c.Script) {
		return 0
	}
	v := c.Script[c.pos]
	c.pos++
	if v >= n {
		v = n - 1
	}
	return v
}

func TestScriptChooser(t *testing.T) {
	src := `
void main() begin
  decl a;
  goto L1, L2;
 L1:
  a := true;
  assert(false);
  goto done;
 L2:
  a := false;
  goto done;
 done:
  return;
end`
	prog := bp.MustParse(src)
	// Script: initial nondet for local a (1 choice), then goto choice 0 → L1.
	in := &Interp{Prog: prog, Choice: &ScriptChooser{Script: []int{0, 0}}}
	res, err := in.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != AssertFailed {
		t.Fatalf("scripted path should hit the assert, got %s", res.Status)
	}
}
