package bebop

import (
	"math/rand"
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
