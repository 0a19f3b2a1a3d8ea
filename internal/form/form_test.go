package form

import (
	"testing"

	"predabs/internal/cparse"
)

func parseF(t *testing.T, src string) Formula {
	t.Helper()
	e, err := cparse.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	f, err := FromCond(e)
	if err != nil {
		t.Fatalf("convert %q: %v", src, err)
	}
	return f
}

func parseT(t *testing.T, src string) Term {
	t.Helper()
	e, err := cparse.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	tm, err := FromExpr(e)
	if err != nil {
		t.Fatalf("convert %q: %v", src, err)
	}
	return tm
}

func TestFromCondShapes(t *testing.T) {
	cases := []struct{ src, want string }{
		{"x < y", "x < y"},
		{"curr == NULL", "curr == 0"},
		{"curr->val > v", "curr->val > v"},
		{"!(x < y)", "x >= y"},
		{"a && b", "(a != 0) && (b != 0)"},
		{"p", "p != 0"},
		{"x == y + 1", "x == (y + 1)"},
		{"*p <= 0", "*p <= 0"},
		{"&x == p", "&x == p"},
		{"a[i] == 0", "a[i] == 0"},
		{"s.f == 1", "s.f == 1"},
		{"1", "true"},
		{"0", "false"},
	}
	for _, c := range cases {
		f := parseF(t, c.src)
		if f.String() != c.want {
			t.Errorf("%q: got %q, want %q", c.src, f.String(), c.want)
		}
	}
}

func TestFromCondRejectsCalls(t *testing.T) {
	e, err := cparse.ParseExpr("f(x) > 0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromCond(e); err == nil {
		t.Fatal("expected error for call in predicate")
	}
}

func TestNNF(t *testing.T) {
	f := parseF(t, "!(x < y && p == NULL)")
	g := NNF(f)
	want := "(x >= y) || (p != 0)"
	if g.String() != want {
		t.Errorf("NNF: got %q, want %q", g.String(), want)
	}
}

func TestMkAndOrSimplification(t *testing.T) {
	x := parseF(t, "x < y")
	if got := MkAnd(TrueF{}, x, TrueF{}); got.String() != x.String() {
		t.Errorf("And(true,x,true) = %s", got)
	}
	if _, ok := MkAnd(x, FalseF{}).(FalseF); !ok {
		t.Error("And(x,false) should be false")
	}
	if got := MkOr(FalseF{}, x); got.String() != x.String() {
		t.Errorf("Or(false,x) = %s", got)
	}
	if _, ok := MkOr(x, TrueF{}).(TrueF); !ok {
		t.Error("Or(x,true) should be true")
	}
	if got := MkAnd(x, x); got.String() != x.String() {
		t.Errorf("And(x,x) = %s, want dedup", got)
	}
}

func TestMkCmpFolding(t *testing.T) {
	if _, ok := MkCmp(Lt, Num{3}, Num{5}).(TrueF); !ok {
		t.Error("3<5 should fold to true")
	}
	if _, ok := MkCmp(Gt, Num{3}, Num{5}).(FalseF); !ok {
		t.Error("3>5 should fold to false")
	}
	if _, ok := MkCmp(Eq, Var{"x"}, Var{"x"}).(TrueF); !ok {
		t.Error("x==x should fold to true")
	}
	// Address constants.
	if _, ok := MkCmp(Eq, AddrOf{Var{"a"}}, AddrOf{Var{"b"}}).(FalseF); !ok {
		t.Error("&a==&b should fold to false")
	}
	if _, ok := MkCmp(Ne, AddrOf{Var{"a"}}, AddrOf{Var{"b"}}).(TrueF); !ok {
		t.Error("&a!=&b should fold to true")
	}
	if _, ok := MkCmp(Eq, AddrOf{Var{"a"}}, Num{0}).(FalseF); !ok {
		t.Error("&a==NULL should fold to false")
	}
	if _, ok := MkCmp(Eq, AddrOf{Var{"a"}}, AddrOf{Var{"a"}}).(TrueF); !ok {
		t.Error("&a==&a should fold to true")
	}
}

func TestReadLocations(t *testing.T) {
	cases := []struct {
		src  string
		want []string
	}{
		{"x < y", []string{"x", "y"}},
		{"*p <= 0", []string{"*p", "p"}},
		{"curr->val > v", []string{"curr->val", "curr", "v"}},
		{"&x == p", []string{"p"}}, // &x reads nothing of x
		{"a[i] == 0", []string{"a[i]", "i"}},
		{"p->next->val == 0", []string{"p->next->val", "p->next", "p"}},
	}
	for _, c := range cases {
		f := parseF(t, c.src)
		locs := ReadLocations(f)
		got := make([]string, len(locs))
		for i, l := range locs {
			got[i] = l.String()
		}
		if len(got) != len(c.want) {
			t.Errorf("%q: locations %v, want %v", c.src, got, c.want)
			continue
		}
		seen := map[string]bool{}
		for _, g := range got {
			seen[g] = true
		}
		for _, w := range c.want {
			if !seen[w] {
				t.Errorf("%q: missing location %q in %v", c.src, w, got)
			}
		}
		// Outer-first ordering: first element is the largest.
		if len(got) > 1 && termSize(locs[0]) < termSize(locs[len(locs)-1]) {
			t.Errorf("%q: not outer-first: %v", c.src, got)
		}
	}
}

func TestSubstReadsLeavesAddressPositions(t *testing.T) {
	// Substituting x in (p == &x && x == 1) must only touch the read.
	f := parseF(t, "p == &x && x == 1")
	g := SubstReads(f, Var{"x"}, Num{7})
	want := "(p == &x) && (false)"
	_ = want
	// x == 1 becomes 7 == 1 → false, so the whole formula folds to false.
	if _, ok := g.(FalseF); !ok {
		t.Errorf("got %s, want false (7==1 folds)", g)
	}
	f2 := parseF(t, "p == &x")
	g2 := SubstReads(f2, Var{"x"}, Num{7})
	if g2.String() != "p == &x" {
		t.Errorf("&x must not be rewritten: %s", g2)
	}
}

func TestSubstReadsNestedChain(t *testing.T) {
	// Substituting p->next inside p->next->val rewrites the base.
	f := parseF(t, "p->next->val == 0")
	g := SubstReads(f, parseT(t, "p->next"), Var{"q"})
	if g.String() != "q->val == 0" {
		t.Errorf("got %s, want q->val == 0", g)
	}
}

func TestSubstDerefAddrSimplifies(t *testing.T) {
	// *(p) with p := &v becomes v.
	f := parseF(t, "*p == 1")
	g := SubstReads(f, Var{"p"}, AddrOf{Var{"v"}})
	if g.String() != "v == 1" {
		t.Errorf("got %s, want v == 1", g)
	}
}

func TestEvalBasics(t *testing.T) {
	env := NewEnv()
	if err := env.Store(Var{"x"}, 3); err != nil {
		t.Fatal(err)
	}
	if err := env.Store(Var{"y"}, 5); err != nil {
		t.Fatal(err)
	}
	got, err := env.EvalFormula(parseF(t, "x + 2 == y"))
	if err != nil || !got {
		t.Errorf("x+2==y: got %v err %v", got, err)
	}
	// Pointer: p = &x, *p reads x.
	pa, _ := env.EvalAddr(Var{"x"})
	if err := env.Store(Var{"p"}, pa); err != nil {
		t.Fatal(err)
	}
	got, err = env.EvalFormula(parseF(t, "*p == 3"))
	if err != nil || !got {
		t.Errorf("*p==3: got %v err %v", got, err)
	}
	got, err = env.EvalFormula(parseF(t, "p == &x"))
	if err != nil || !got {
		t.Errorf("p==&x: got %v err %v", got, err)
	}
}

func TestEvalFields(t *testing.T) {
	env := NewEnv()
	// s.f and s.g are distinct cells.
	if err := env.Store(Sel{X: Var{"s"}, Field: "f"}, 1); err != nil {
		t.Fatal(err)
	}
	if err := env.Store(Sel{X: Var{"s"}, Field: "g"}, 2); err != nil {
		t.Fatal(err)
	}
	got, err := env.EvalFormula(parseF(t, "s.f == 1 && s.g == 2"))
	if err != nil || !got {
		t.Errorf("fields: got %v err %v", got, err)
	}
	// p->f where p = &s.
	sa, _ := env.EvalAddr(Var{"s"})
	if err := env.Store(Var{"p"}, sa); err != nil {
		t.Fatal(err)
	}
	got, err = env.EvalFormula(parseF(t, "p->f == 1"))
	if err != nil || !got {
		t.Errorf("p->f: got %v err %v", got, err)
	}
}

func TestAtoms(t *testing.T) {
	f := parseF(t, "x < y && (x < y || p == NULL)")
	atoms := Atoms(f)
	if len(atoms) != 2 {
		t.Fatalf("atoms: %v", atoms)
	}
}

func TestAddrHelper(t *testing.T) {
	if got := Addr(Deref{Var{"p"}}); got.String() != "p" {
		t.Errorf("Addr(*p) = %s", got)
	}
	if got := Addr(Var{"v"}); got.String() != "&v" {
		t.Errorf("Addr(v) = %s", got)
	}
}
