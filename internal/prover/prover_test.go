package prover

import (
	"math/rand"
	"testing"

	"predabs/internal/cparse"
	"predabs/internal/form"
)

func pf(t *testing.T, src string) form.Formula {
	t.Helper()
	e, err := cparse.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	f, err := form.FromCond(e)
	if err != nil {
		t.Fatalf("convert %q: %v", src, err)
	}
	return f
}

func TestValidArithmetic(t *testing.T) {
	p := New()
	cases := []struct {
		hyp, goal string
		want      bool
	}{
		// Paper Section 4.1: (x = 2) ⇒ (x < 4).
		{"x == 2", "x < 4", true},
		{"x == 2", "x < 2", false},
		{"x < 5", "x < 6", true},
		{"x < 5", "x < 4", false},
		{"x <= 4", "x < 5", true},
		{"x > 0 && y > 0", "x + y > 1", true},
		{"x > 0 && y > 0", "x + y > 2", false},
		{"x == y && y == z", "x == z", true},
		{"x == y + 1", "x > y", true},
		{"x >= 0 && x <= 0", "x == 0", true},
		{"x != 0 && x >= 0", "x >= 1", true},
		{"2 * x == 6", "x == 3", true},
		{"x + 1 <= y", "x < y", true},
		{"x - y == 0", "x == y", true},
		{"1 == 1", "2 > 1", true},
		{"x > 1", "x != 1", true},
	}
	for _, c := range cases {
		got := p.Valid(pf(t, c.hyp), pf(t, c.goal))
		if got != c.want {
			t.Errorf("(%s) => (%s): got %v, want %v", c.hyp, c.goal, got, c.want)
		}
	}
}

func TestValidEUF(t *testing.T) {
	p := New()
	cases := []struct {
		hyp, goal string
		want      bool
	}{
		// Footnote 3: (p = q) ⇒ (*p = *q), contrapositive used for alias
		// refinement.
		{"p == q", "*p == *q", true},
		{"*p != *q", "p != q", true},
		{"p == q", "p->val == q->val", true},
		{"p->val != q->val", "p != q", true},
		{"p == q && q == r", "*p == *r", true},
		{"p != q", "*p != *q", false}, // different pointers may share values
		{"i == j", "a[i] == a[j]", true},
		{"a[i] != a[j]", "i != j", true},
		{"p == &x", "*p == x", true},
		{"p == &x && q == &x", "*p == *q", true},
		{"p == &x && *p == 3", "x == 3", true},
		{"x == 1", "*p == 1", false},
	}
	for _, c := range cases {
		got := p.Valid(pf(t, c.hyp), pf(t, c.goal))
		if got != c.want {
			t.Errorf("(%s) => (%s): got %v, want %v", c.hyp, c.goal, got, c.want)
		}
	}
}

func TestValidAddressDistinctness(t *testing.T) {
	p := New()
	if !p.Valid(pf(t, "p == &x"), pf(t, "p != NULL")) {
		t.Error("&x is non-NULL")
	}
	if !p.Valid(pf(t, "p == &x && q == &y"), pf(t, "p != q")) {
		t.Error("&x != &y for distinct variables")
	}
	if p.Valid(pf(t, "p == &x && q == &x"), pf(t, "p != q")) {
		t.Error("same address: p == q")
	}
}

// The Section 2.2 alias refinement: the Bebop invariant implies that prev
// and curr are never aliases at label L.
func TestSection22AliasRefinement(t *testing.T) {
	p := New()
	inv := pf(t, "curr != NULL && curr->val > v && (prev->val <= v || prev == NULL)")
	goal := pf(t, "prev != curr")
	if !p.Valid(inv, goal) {
		t.Fatal("invariant should imply prev != curr")
	}
	// Without the value information it is not derivable.
	weak := pf(t, "curr != NULL")
	if p.Valid(weak, goal) {
		t.Fatal("curr != NULL alone must not imply prev != curr")
	}
}

func TestValidMixedTheory(t *testing.T) {
	p := New()
	cases := []struct {
		hyp, goal string
		want      bool
	}{
		// LA → CC: arithmetic forces i = j, congruence transfers to a[i].
		{"i <= j && j <= i && a[i] == 1", "a[j] == 1", true},
		{"i <= j && j <= i + 1 && a[i] == 1", "a[j] == 1", false},
		// CC → LA: equal terms share arithmetic bounds.
		{"p->val == x && x > 5", "p->val > 3", true},
		{"*p == x && *q == y && p == q", "x == y", true},
		{"x == 2 && y == x + 1", "a[y] == a[3]", true},
	}
	for _, c := range cases {
		got := p.Valid(pf(t, c.hyp), pf(t, c.goal))
		if got != c.want {
			t.Errorf("(%s) => (%s): got %v, want %v", c.hyp, c.goal, got, c.want)
		}
	}
}

func TestUnsat(t *testing.T) {
	p := New()
	unsat := []string{
		"x < 0 && x > 0",
		"x == 1 && x == 2",
		"p == NULL && p == &x",
		"p == q && *p != *q",
		"x <= y && y <= z && z < x",
		"curr == NULL && curr != NULL",
		"x == y && x < y",
	}
	for _, s := range unsat {
		if !p.Unsat(pf(t, s)) {
			t.Errorf("%q should be unsat", s)
		}
	}
	sat := []string{
		"x < 0 || x > 0",
		"x == 1 && y == 2",
		"p != q && *p == *q",
		"x <= y && y <= x",
	}
	for _, s := range sat {
		if p.Unsat(pf(t, s)) {
			t.Errorf("%q should be sat", s)
		}
	}
}

func TestBooleanStructure(t *testing.T) {
	p := New()
	cases := []struct {
		hyp, goal string
		want      bool
	}{
		{"x == 1 || x == 2", "x <= 2", true},
		{"x == 1 || x == 2", "x == 1", false},
		{"x == 1", "x == 1 || y == 2", true},
		{"x == 1 && (y == 2 || y == 3)", "y >= 2", true},
		{"!(x < 5)", "x >= 5", true},
		{"!(x == 1 || x == 2)", "x != 1", true},
	}
	for _, c := range cases {
		got := p.Valid(pf(t, c.hyp), pf(t, c.goal))
		if got != c.want {
			t.Errorf("(%s) => (%s): got %v, want %v", c.hyp, c.goal, got, c.want)
		}
	}
}

func TestCallCounting(t *testing.T) {
	p := New()
	before := p.Calls()
	p.Valid(pf(t, "x == 1"), pf(t, "x < 2"))
	p.Valid(pf(t, "x == 1"), pf(t, "x < 2")) // cached, still counted
	if p.Calls() != before+2 {
		t.Errorf("Calls = %d, want %d", p.Calls(), before+2)
	}
	if p.CacheHits() == 0 {
		t.Error("second identical query should hit the cache")
	}
}

func TestDisableCache(t *testing.T) {
	p := New()
	p.DisableCache = true
	p.Valid(pf(t, "x == 1"), pf(t, "x < 2"))
	p.Valid(pf(t, "x == 1"), pf(t, "x < 2"))
	if p.CacheHits() != 0 {
		t.Error("cache disabled but hits recorded")
	}
}

// Property test: the prover's Unsat answers agree with brute-force
// evaluation over small integer domains (soundness: Unsat=true means no
// model exists in any domain, in particular the small one).
func TestUnsatSoundnessAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	atoms := []string{
		"x < y", "x == 0", "y == 1", "x == y", "x + y == 2",
		"x <= 1", "y > x", "x != y", "x >= -1", "2*x == y",
	}
	randFormula := func() form.Formula {
		f := pf(t, atoms[r.Intn(len(atoms))])
		for k := 0; k < 2; k++ {
			g := pf(t, atoms[r.Intn(len(atoms))])
			switch r.Intn(3) {
			case 0:
				f = form.MkAnd(f, g)
			case 1:
				f = form.MkOr(f, g)
			case 2:
				f = form.MkAnd(f, form.MkNot(g))
			}
		}
		return f
	}
	p := New()
	for trial := 0; trial < 500; trial++ {
		f := randFormula()
		// Brute force over x,y ∈ [-3,3].
		model := false
		for x := int64(-3); x <= 3 && !model; x++ {
			for y := int64(-3); y <= 3 && !model; y++ {
				env := form.NewEnv()
				env.Store(form.Var{Name: "x"}, x)
				env.Store(form.Var{Name: "y"}, y)
				v, err := env.EvalFormula(f)
				if err != nil {
					t.Fatal(err)
				}
				if v {
					model = true
				}
			}
		}
		got := p.Unsat(f)
		if got && model {
			t.Fatalf("prover says unsat but model exists: %s", f)
		}
		// Completeness on this simple fragment: if no model exists in a
		// wide-enough domain, the prover should find unsat (the atoms only
		// constrain x,y near the [-3,3] range).
		if !got && !model {
			// Check a wider domain before failing: some formulas are
			// satisfiable only outside [-3,3].
			wider := false
			for x := int64(-8); x <= 8 && !wider; x++ {
				for y := int64(-8); y <= 8 && !wider; y++ {
					env := form.NewEnv()
					env.Store(form.Var{Name: "x"}, x)
					env.Store(form.Var{Name: "y"}, y)
					v, _ := env.EvalFormula(f)
					if v {
						wider = true
					}
				}
			}
			if !wider {
				t.Fatalf("prover says sat but no model in [-8,8]: %s", f)
			}
		}
	}
}

// Property test: Valid is sound — whenever Valid(h,g), every small-domain
// model of h satisfies g.
func TestValidSoundnessAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	atoms := []string{
		"x < y", "x == 0", "y <= 2", "x == y", "x + 1 == y",
		"x > 0", "y != 0", "x <= y",
	}
	p := New()
	for trial := 0; trial < 500; trial++ {
		h := pf(t, atoms[r.Intn(len(atoms))])
		h = form.MkAnd(h, pf(t, atoms[r.Intn(len(atoms))]))
		g := pf(t, atoms[r.Intn(len(atoms))])
		if !p.Valid(h, g) {
			continue
		}
		for x := int64(-4); x <= 4; x++ {
			for y := int64(-4); y <= 4; y++ {
				env := form.NewEnv()
				env.Store(form.Var{Name: "x"}, x)
				env.Store(form.Var{Name: "y"}, y)
				hv, _ := env.EvalFormula(h)
				gv, _ := env.EvalFormula(g)
				if hv && !gv {
					t.Fatalf("unsound: Valid(%s => %s) but x=%d y=%d refutes", h, g, x, y)
				}
			}
		}
	}
}

// TestTheoryLeafZeroAlloc pins that a warmed theory check allocates
// nothing: the closure, the linear arithmetic and the equality exchange
// all run in reused storage. The state is held here, not taken from the
// pool, which a garbage collection may empty. The leaf mixes EUF and LA
// and takes one equality-propagation round: x <= y and y <= x entail
// x == y, which congruence lifts to *x == *y against *x != *y.
func TestTheoryLeafZeroAlloc(t *testing.T) {
	x, y, a, b := form.Var{Name: "x"}, form.Var{Name: "y"}, form.Var{Name: "a"}, form.Var{Name: "b"}
	tab := newTermTable()
	ids := compileLits(tab, []lit{
		{form.Le, x, y},
		{form.Ne, form.Deref{X: x}, form.Deref{X: y}},
		{form.Lt, form.Arith{Op: form.OpAdd, X: a, Y: form.Num{V: 1}}, b},
		{form.Le, y, x},
		{form.Eq, form.Sel{X: form.Deref{X: a}, Field: "f"}, x},
	})
	snap := tab.snapshot()
	var th theory
	var eff theoryEffort
	if th.check(snap, ids, &eff) {
		t.Fatal("leaf not refuted")
	}
	if eff.probes == 0 || eff.unions == 0 || eff.fmRuns == 0 {
		t.Fatalf("effort %+v: the leaf must run FM, probe and merge", eff)
	}
	if n := testing.AllocsPerRun(100, func() { th.check(snap, ids, &eff) }); n != 0 {
		t.Fatalf("warmed theory check: %v allocs, want 0", n)
	}
}
