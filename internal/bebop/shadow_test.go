package bebop

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"predabs/internal/bp"
	"predabs/internal/bpinterp"
)

// A local or parameter may shadow a global. Assigning the shadowing
// variable must leave the global's frame condition intact: each program
// below sets the global false through a callee, writes the shadowing
// variable, and asserts the global in another callee.
var shadowPrograms = []struct {
	name string
	src  string
	bad  bool // the assertion in check can fail
}{
	{"local", `
decl g;
void clear() begin g := false; return; end
void check() begin assert(!g); return; end
void main() begin
  decl g;
  clear();
  g := true;
  check();
  return;
end`, false},
	{"local from call", `
decl g;
void clear() begin g := false; return; end
bool yes() begin return true; end
void check() begin assert(!g); return; end
void main() begin
  decl g;
  clear();
  g := yes();
  check();
  return;
end`, false},
	{"param", `
decl g;
void clear() begin g := false; return; end
void check() begin assert(!g); return; end
void set(g) begin
  g := true;
  check();
  return;
end
void main() begin
  clear();
  set(*);
  return;
end`, false},
	// The global itself written after the shadowed write: the
	// assertion fails, and must still be found.
	{"global too", `
decl g;
void clear() begin g := false; return; end
void raise() begin g := true; return; end
void check() begin assert(!g); return; end
void main() begin
  decl g;
  clear();
  g := false;
  raise();
 L:
  check();
  return;
end`, true},
}

func TestShadowingKeepsGlobalFrame(t *testing.T) {
	for _, tc := range shadowPrograms {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := bp.Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			c, err := Check(prog, "main")
			if err != nil {
				t.Fatal(err)
			}
			f, bebopBad := c.ErrorReachable()
			if bebopBad != tc.bad {
				t.Fatalf("Bebop reports failure %v at %+v, want %v", bebopBad, f, tc.bad)
			}
			if bebopBad {
				trace, ok := c.Trace("main", f)
				if !ok {
					t.Fatalf("no trace to %+v", f)
				}
				validateTrace(t, c, trace, f)
			}
			interpBad := false
			for seed := int64(0); seed < 200 && !interpBad; seed++ {
				in := &bpinterp.Interp{Prog: prog, Choice: bpinterp.RandChooser{R: rand.New(rand.NewSource(seed))}}
				res, err := in.Run("main")
				if err != nil {
					t.Fatal(err)
				}
				interpBad = res.Status == bpinterp.AssertFailed
			}
			if interpBad != bebopBad {
				t.Fatalf("interpreter assert failure %v, Bebop %v", interpBad, bebopBad)
			}
		})
	}
}

// TestShadowedInvariantColumns: at label L of "global too", main's local
// g shadows the global g, which raise has just set. The invariant there
// must name each variable in scope once, the local, and list exactly the
// valuations of it that bpinterp reaches at L.
func TestShadowedInvariantColumns(t *testing.T) {
	var src string
	for _, p := range shadowPrograms {
		if p.name == "global too" {
			src = p.src
		}
	}
	prog, err := bp.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Check(prog, "main")
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := c.StmtAtLabel("main", "L")
	if !ok {
		t.Fatal("no label L in main")
	}
	names, _ := c.InvariantRows("main", idx)
	if !slices.Equal(names, []string{"g"}) {
		t.Fatalf("InvariantRows columns = %q, want [g]", names)
	}

	// Probe each valuation of the local at L with an assert that fails
	// exactly there.
	var reached []string
	for _, cube := range []string{"g", "!g"} {
		probe, err := bp.Parse(strings.Replace(src, " L:\n", " L:\n  assert(!("+cube+"));\n", 1))
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 200; seed++ {
			in := &bpinterp.Interp{Prog: probe, Choice: bpinterp.RandChooser{R: rand.New(rand.NewSource(seed))}}
			res, err := in.Run("main")
			if err != nil {
				t.Fatal(err)
			}
			if res.Status == bpinterp.AssertFailed && res.FailProc == "main" {
				reached = append(reached, cube)
				break
			}
		}
	}
	sort.Strings(reached)
	if got, want := c.InvariantString("main", idx), strings.Join(reached, "  |  "); got != want {
		t.Errorf("InvariantString at L = %q, bpinterp reaches %q", got, want)
	}
}
