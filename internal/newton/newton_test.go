package newton

import (
	"strings"
	"testing"

	"predabs/internal/abstract"
	"predabs/internal/alias"
	"predabs/internal/bebop"
	"predabs/internal/cnorm"
	"predabs/internal/cparse"
	"predabs/internal/ctype"
	"predabs/internal/prover"
)

// setup runs frontend + abstraction + bebop and returns the first failure
// trace.
func setup(t *testing.T, src, predSrc, entry string) (*cnorm.Result, *alias.Analysis, *prover.Prover, []bebop.Step) {
	t.Helper()
	prog, err := cparse.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := ctype.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	res, err := cnorm.Normalize(info)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	aa := alias.Analyze(res)
	pv := prover.New()
	var sections []cparse.PredSection
	if predSrc != "" {
		sections, err = cparse.ParsePredFile(predSrc)
		if err != nil {
			t.Fatal(err)
		}
	}
	abs, err := abstract.Abstract(res, aa, pv, sections, abstract.DefaultOptions())
	if err != nil {
		t.Fatalf("abstract: %v", err)
	}
	ch, err := bebop.Check(abs.BP, entry)
	if err != nil {
		t.Fatal(err)
	}
	f, bad := ch.ErrorReachable()
	if !bad {
		t.Fatalf("no failure to analyze")
	}
	trace, ok := ch.Trace(entry, f)
	if !ok {
		t.Fatal("no trace")
	}
	return res, aa, pv, trace
}

func TestInfeasiblePathDiscovery(t *testing.T) {
	// The assert can never fail, but with no predicates the abstraction
	// cannot see it; Newton must prove the path infeasible and propose
	// predicates about x.
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
	if nres.Feasible {
		t.Fatalf("path is infeasible (x==1 always holds); events: %v", nres.Events)
	}
	found := false
	for _, preds := range nres.NewPreds {
		for _, p := range preds {
			if strings.Contains(p, "x") {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no predicate about x discovered: %v", nres.NewPreds)
	}
}

func TestFeasiblePathReported(t *testing.T) {
	src := `
void main(int x) {
  assert(x == 0);
}
`
	res, aa, pv, trace := setup(t, src, "", "main")
	nres, err := Analyze(res, aa, pv, trace, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !nres.Feasible {
		t.Fatalf("path is feasible (x is arbitrary): %v", nres.Events)
	}
}

func TestBranchCorrelationInfeasible(t *testing.T) {
	// Taking (x>0) then (!(x>0)) branches is contradictory.
	src := `
void main(int x) {
  int y;
  y = 0;
  if (x > 0) {
    y = 1;
  }
  if (x > 0) {
    assert(y == 1);
  }
}
`
	// With no predicates the abstraction lets the error path take the
	// then branch first and the else branch second.
	res, aa, pv, trace := setup(t, src, "", "main")
	nres, err := Analyze(res, aa, pv, trace, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nres.Feasible {
		t.Fatalf("spurious path should be infeasible; events:\n%s", strings.Join(nres.Events, "\n"))
	}
	if len(nres.NewPreds) == 0 {
		t.Fatal("no predicates discovered")
	}
}

func TestInterproceduralRenaming(t *testing.T) {
	// The callee's local x is distinct from the caller's x.
	src := `
int inc(int x) {
  int r;
  r = x + 1;
  return r;
}

void main(void) {
  int x;
  int y;
  x = 5;
  y = inc(x);
  assert(y == 6);
}
`
	res, aa, pv, trace := setup(t, src, "", "main")
	nres, err := Analyze(res, aa, pv, trace, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nres.Feasible {
		t.Fatalf("y is always 6; events:\n%s", strings.Join(nres.Events, "\n"))
	}
}

func TestPointerPathInfeasible(t *testing.T) {
	src := `
void main(void) {
  int v;
  int* p;
  p = &v;
  *p = 3;
  assert(v == 3);
}
`
	res, aa, pv, trace := setup(t, src, "", "main")
	nres, err := Analyze(res, aa, pv, trace, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nres.Feasible {
		t.Fatalf("*p writes v; the assert holds. events:\n%s", strings.Join(nres.Events, "\n"))
	}
}
