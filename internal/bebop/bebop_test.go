package bebop

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"predabs/internal/bp"
	"predabs/internal/bpinterp"
)

func check(t *testing.T, src, entry string) *Checker {
	t.Helper()
	prog, err := bp.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := Check(prog, entry)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestStraightLine(t *testing.T) {
	c := check(t, `
void main() begin
  decl a, b;
  a := true;
  b := !a;
 L:
  skip;
  return;
end`, "main")
	idx, ok := c.StmtAtLabel("main", "L")
	if !ok {
		t.Fatal("no label L")
	}
	inv := c.InvariantString("main", idx)
	if inv != "a & !b" {
		t.Errorf("invariant at L: %q, want \"a & !b\"", inv)
	}
}

func TestAssertUnreachableViolation(t *testing.T) {
	c := check(t, `
void main() begin
  decl a;
  a := true;
  assert(a);
  return;
end`, "main")
	if _, bad := c.ErrorReachable(); bad {
		t.Fatal("no violation expected")
	}
}

func TestAssertReachableViolation(t *testing.T) {
	c := check(t, `
void main() begin
  decl a;
  a := *;
  assert(a);
  return;
end`, "main")
	f, bad := c.ErrorReachable()
	if !bad {
		t.Fatal("violation expected (a may be false)")
	}
	if f.Proc != "main" {
		t.Errorf("failure at %v", f)
	}
}

func TestAssumeFilters(t *testing.T) {
	c := check(t, `
void main() begin
  decl a;
  a := *;
  assume(a);
  assert(a);
  return;
end`, "main")
	if _, bad := c.ErrorReachable(); bad {
		t.Fatal("assume should protect the assert")
	}
}

func TestCorrelationTracked(t *testing.T) {
	// Sets of bit vectors, not independent bits: after the swap the
	// correlation a != b must be exact.
	c := check(t, `
void main() begin
  decl a, b;
  a := *;
  b := !a;
  a, b := b, a;
 L:
  assert(!(a & b));
  assert(a | b);
  return;
end`, "main")
	if _, bad := c.ErrorReachable(); bad {
		t.Fatal("swap preserves a != b")
	}
	idx, _ := c.StmtAtLabel("main", "L")
	inv := c.InvariantString("main", idx)
	if inv != "!a & b  |  a & !b" {
		t.Errorf("invariant: %q", inv)
	}
}

func TestLoopFixpoint(t *testing.T) {
	c := check(t, `
void main() begin
  decl a;
  a := false;
  while (*) do
    a := !a;
  od
  assert(a | !a);
  return;
end`, "main")
	if _, bad := c.ErrorReachable(); bad {
		t.Fatal("tautology cannot fail")
	}
}

func TestInterproceduralSummary(t *testing.T) {
	c := check(t, `
decl g;

bool id(x) begin
  return x;
end

void main() begin
  decl a, b;
  a := *;
  b := id(a);
  assert(b <=> a);
  g := id(true);
  assert(g);
  return;
end`, "main")
	if f, bad := c.ErrorReachable(); bad {
		t.Fatalf("identity summary broken: %+v", f)
	}
}

func TestGlobalSideEffects(t *testing.T) {
	c := check(t, `
decl g;

void setit() begin
  g := true;
  return;
end

void main() begin
  g := false;
  setit();
  assert(g);
  return;
end`, "main")
	if _, bad := c.ErrorReachable(); bad {
		t.Fatal("global side effect lost")
	}
}

func TestMultipleReturns(t *testing.T) {
	c := check(t, `
bool<2> pair(x) begin
  return x, !x;
end

void main() begin
  decl a, b, v;
  v := *;
  a, b := pair(v);
  assert(a <=> v);
  assert(b <=> !v);
  return;
end`, "main")
	if _, bad := c.ErrorReachable(); bad {
		t.Fatal("multiple returns broken")
	}
}

func TestRecursionTerminates(t *testing.T) {
	// Boolean programs with recursion have decidable reachability via
	// summaries (the paper: "recursive and mutually recursive procedures
	// with no additional mechanism").
	c := check(t, `
decl g;

void rec(x) begin
  if (x) then
    rec(false);
  else
    g := true;
  fi
  return;
end

void main() begin
  g := false;
  rec(true);
  assert(g);
  return;
end`, "main")
	if _, bad := c.ErrorReachable(); bad {
		t.Fatal("recursion summary broken")
	}
}

func TestEnforceRestrictsStates(t *testing.T) {
	c := check(t, `
void main() begin
  decl a, b;
  enforce !(a & b);
  a := *;
  b := *;
 L:
  assert(!(a & b));
  return;
end`, "main")
	if _, bad := c.ErrorReachable(); bad {
		t.Fatal("enforce must exclude a & b")
	}
	idx, _ := c.StmtAtLabel("main", "L")
	names, rows := c.InvariantRows("main", idx)
	ai, bi := -1, -1
	for i, n := range names {
		switch n {
		case "a":
			ai = i
		case "b":
			bi = i
		}
	}
	for _, row := range rows {
		if row[ai] == 1 && row[bi] == 1 {
			t.Errorf("invariant contains forbidden state a=b=1: %v", rows)
		}
	}
	if len(rows) != 3 {
		t.Errorf("expected 3 allowed states, got %d", len(rows))
	}
}

func TestChooseSemantics(t *testing.T) {
	c := check(t, `
void main() begin
  decl p, v;
  p := *;
  v := choose(p, !p);
  assert(v <=> p);
  return;
end`, "main")
	if _, bad := c.ErrorReachable(); bad {
		t.Fatal("choose(p, !p) must equal p")
	}
	// choose(false,false) is free.
	c2 := check(t, `
void main() begin
  decl v;
  v := choose(false, false);
  assert(v);
  return;
end`, "main")
	if _, bad := c2.ErrorReachable(); !bad {
		t.Fatal("choose(false,false) can be false")
	}
}

func TestUnreachableCodeHasFalseInvariant(t *testing.T) {
	c := check(t, `
void main() begin
  decl a;
  a := true;
  goto done;
 dead:
  assert(false);
  goto done;
 done:
  return;
end`, "main")
	if _, bad := c.ErrorReachable(); bad {
		t.Fatal("dead assert must not fire")
	}
	idx, _ := c.StmtAtLabel("main", "dead")
	if inv := c.InvariantString("main", idx); inv != "false" {
		t.Errorf("dead code invariant: %s", inv)
	}
}

func TestParamPassingByValue(t *testing.T) {
	c := check(t, `
void mut(x) begin
  x := !x;
  return;
end

void main() begin
  decl a;
  a := true;
  mut(a);
  assert(a);
  return;
end`, "main")
	if _, bad := c.ErrorReachable(); bad {
		t.Fatal("call-by-value violated")
	}
}

// Property test: Bebop's reachability agrees with many random concrete
// interpreter runs — every interpreted state at a labelled point must be
// inside Bebop's invariant (soundness of the fixpoint), and asserts that
// Bebop calls safe must never fail concretely.
func TestBebopSoundAgainstInterpreter(t *testing.T) {
	src := `
decl g;

bool flip(x) begin
  decl t;
  t := !x;
  g := g | t;
  return t;
end

void main() begin
  decl a, b, c;
  a := *;
  b := choose(a, false);
  c := false;
  while (*) do
    c := flip(b);
    if (c) then
      b := !b;
    else
      skip;
    fi
  od
 L:
  skip;
  return;
end`
	prog := bp.MustParse(src)
	checker, err := Check(prog, "main")
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := checker.StmtAtLabel("main", "L")
	pi := checker.procs["main"]
	slots := pi.slots
	reach := checker.reachable(pi, idx)

	for seed := int64(0); seed < 300; seed++ {
		in := &bpinterp.Interp{
			Prog:   prog,
			Choice: bpinterp.RandChooser{R: rand.New(rand.NewSource(seed))},
		}
		res, err := in.Run("main")
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != bpinterp.Completed {
			continue
		}
		// Reconstruct the state at L from the trace by replay is complex;
		// instead check the global at completion is allowed by the
		// invariant at L projected onto g... the final state passed
		// through L, where only g is global.
		// Project the invariant onto g.
		gSlot := checker.glob[0]
		gOnly := checker.m.Exists(reach, colVars(slots, colCurrent))
		_ = gOnly
		gTrue := checker.m.And(reach, checker.m.Var(gSlot.col(colCurrent)))
		gFalse := checker.m.And(reach, checker.m.Not(checker.m.Var(gSlot.col(colCurrent))))
		if res.Globals["g"] && checker.m.IsFalse(gTrue) {
			t.Fatalf("seed %d: interpreter reached g=true at exit but invariant forbids it", seed)
		}
		if !res.Globals["g"] && checker.m.IsFalse(gFalse) {
			t.Fatalf("seed %d: interpreter reached g=false at exit but invariant forbids it", seed)
		}
	}
}

// Property test: on random small single-procedure programs, Bebop reports
// an assert violation iff random interpretation can find one (with enough
// seeds, for these tiny state spaces agreement is near-certain in the
// "reachable" direction, and the "unreachable" direction must be exact).
func TestBebopVsInterpreterOnRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 60; trial++ {
		src := randomProgram(r)
		prog, err := bp.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		checker, err := Check(prog, "main")
		if err != nil {
			t.Fatal(err)
		}
		_, bebopBad := checker.ErrorReachable()

		interpBad := false
		for seed := int64(0); seed < 400; seed++ {
			in := &bpinterp.Interp{Prog: prog, Choice: bpinterp.RandChooser{R: rand.New(rand.NewSource(seed))}}
			res, err := in.Run("main")
			if err != nil {
				t.Fatal(err)
			}
			if res.Status == bpinterp.AssertFailed {
				interpBad = true
				break
			}
		}
		if interpBad && !bebopBad {
			t.Fatalf("trial %d: interpreter found a violation Bebop missed\n%s", trial, src)
		}
	}
}

// randomProgram generates a small boolean program over 3 variables.
func randomProgram(r *rand.Rand) string {
	vars := []string{"a", "b", "c"}
	var b strings.Builder
	b.WriteString("void main() begin\n  decl a, b, c;\n")
	expr := func() string {
		v := vars[r.Intn(len(vars))]
		switch r.Intn(4) {
		case 0:
			return v
		case 1:
			return "!" + v
		case 2:
			return "*"
		default:
			w := vars[r.Intn(len(vars))]
			op := []string{"&", "|"}[r.Intn(2)]
			return v + " " + op + " " + w
		}
	}
	n := 4 + r.Intn(5)
	for i := 0; i < n; i++ {
		switch r.Intn(5) {
		case 0, 1:
			fmt.Fprintf(&b, "  %s := %s;\n", vars[r.Intn(3)], expr())
		case 2:
			fmt.Fprintf(&b, "  if (%s) then %s := %s; else %s := %s; fi\n",
				expr(), vars[r.Intn(3)], expr(), vars[r.Intn(3)], expr())
		case 3:
			fmt.Fprintf(&b, "  assume(%s);\n", expr())
		case 4:
			fmt.Fprintf(&b, "  assert(%s);\n", expr())
		}
	}
	b.WriteString("  return;\nend\n")
	return b.String()
}
