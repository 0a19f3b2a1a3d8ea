package bdd

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicIdentities(t *testing.T) {
	m := New(4)
	a, b := m.Var(0), m.Var(1)
	if m.And(a, m.Not(a)) != m.False() {
		t.Error("a ∧ ¬a != false")
	}
	if m.Or(a, m.Not(a)) != m.True() {
		t.Error("a ∨ ¬a != true")
	}
	if m.And(a, b) != m.And(b, a) {
		t.Error("∧ not commutative (canonicity broken)")
	}
	if m.Not(m.Not(a)) != a {
		t.Error("double negation")
	}
	if m.Xor(a, a) != m.False() {
		t.Error("a ⊕ a != false")
	}
}

func TestCanonicity(t *testing.T) {
	m := New(3)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	// (a∧b)∨c == ¬(¬c∧¬(a∧b)) structurally.
	lhs := m.Or(m.And(a, b), c)
	rhs := m.Not(m.And(m.Not(c), m.Not(m.And(a, b))))
	if lhs != rhs {
		t.Error("equivalent formulas have different node ids")
	}
}

// randomFormula builds a random BDD and a mirror evaluator function.
func randomFormula(m *Manager, r *rand.Rand, depth int) (int, func([]bool) bool) {
	if depth == 0 || r.Intn(4) == 0 {
		v := r.Intn(m.NumVars())
		if r.Intn(2) == 0 {
			return m.Var(v), func(a []bool) bool { return a[v] }
		}
		return m.Not(m.Var(v)), func(a []bool) bool { return !a[v] }
	}
	l, fl := randomFormula(m, r, depth-1)
	rr, fr := randomFormula(m, r, depth-1)
	switch r.Intn(3) {
	case 0:
		return m.And(l, rr), func(a []bool) bool { return fl(a) && fr(a) }
	case 1:
		return m.Or(l, rr), func(a []bool) bool { return fl(a) || fr(a) }
	default:
		return m.Xor(l, rr), func(a []bool) bool { return fl(a) != fr(a) }
	}
}

// Property: BDD evaluation agrees with direct formula evaluation on all
// assignments.
func TestEvalAgainstFormula(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const nvars = 6
	for trial := 0; trial < 200; trial++ {
		m := New(nvars)
		f, eval := randomFormula(m, r, 4)
		for mask := 0; mask < 1<<nvars; mask++ {
			a := make([]bool, nvars)
			for i := range a {
				a[i] = mask&(1<<i) != 0
			}
			if m.Eval(f, a) != eval(a) {
				t.Fatalf("trial %d mask %b: BDD %v formula %v", trial, mask, m.Eval(f, a), eval(a))
			}
		}
	}
}

func TestExists(t *testing.T) {
	m := New(3)
	a, b := m.Var(0), m.Var(1)
	// ∃b. a∧b == a.
	if m.Exists(m.And(a, b), []int{1}) != a {
		t.Error("∃b.(a∧b) != a")
	}
	// ∃a. a∧¬a == false.
	if m.Exists(m.And(a, m.Not(a)), []int{0}) != m.False() {
		t.Error("∃a.false != false")
	}
	// ∃a,b. a∨b == true.
	if m.Exists(m.Or(a, b), []int{0, 1}) != m.True() {
		t.Error("∃a,b.(a∨b) != true")
	}
}

// Property: Exists(f, {v}) == f[v:=0] ∨ f[v:=1].
func TestExistsShannon(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		m := New(5)
		f, _ := randomFormula(m, r, 4)
		v := r.Intn(5)
		want := m.Or(m.Restrict(f, v, false), m.Restrict(f, v, true))
		if got := m.Exists(f, []int{v}); got != want {
			t.Fatalf("trial %d: exists != shannon", trial)
		}
	}
}

func TestReplace(t *testing.T) {
	m := New(4)
	a, b := m.Var(0), m.Var(1)
	f := m.And(a, m.Not(b))
	g := m.Replace(f, map[int]int{0: 2, 1: 3})
	want := m.And(m.Var(2), m.Not(m.Var(3)))
	if g != want {
		t.Error("replace failed")
	}
	// Swap (order-violating for naive implementations).
	h := m.Replace(f, map[int]int{0: 1, 1: 0})
	want2 := m.And(m.Var(1), m.Not(m.Var(0)))
	if h != want2 {
		t.Error("swap replace failed")
	}
}

// Property: Replace distributes over And for disjoint renamings.
func TestReplaceHomomorphic(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	rename := map[int]int{0: 4, 1: 5, 2: 6, 3: 7}
	for trial := 0; trial < 60; trial++ {
		m := New(8)
		f, _ := randomFormula4(m, r)
		g, _ := randomFormula4(m, r)
		lhs := m.Replace(m.And(f, g), rename)
		rhs := m.And(m.Replace(f, rename), m.Replace(g, rename))
		if lhs != rhs {
			t.Fatalf("trial %d: replace not homomorphic", trial)
		}
	}
}

// randomFormula4 builds a formula over variables 0..3 only.
func randomFormula4(m *Manager, r *rand.Rand) (int, func([]bool) bool) {
	sub := New(4)
	_ = sub
	var rec func(depth int) int
	rec = func(depth int) int {
		if depth == 0 || r.Intn(4) == 0 {
			v := r.Intn(4)
			if r.Intn(2) == 0 {
				return m.Var(v)
			}
			return m.Not(m.Var(v))
		}
		l, rr := rec(depth-1), rec(depth-1)
		switch r.Intn(3) {
		case 0:
			return m.And(l, rr)
		case 1:
			return m.Or(l, rr)
		default:
			return m.Xor(l, rr)
		}
	}
	return rec(3), nil
}

func TestAllSat(t *testing.T) {
	m := New(3)
	a, b := m.Var(0), m.Var(1)
	f := m.And(a, m.Not(b))
	rows := m.AllSat(f, []int{0, 1, 2})
	if len(rows) != 2 {
		t.Fatalf("rows: %v", rows)
	}
	for _, row := range rows {
		if row[0] != 1 || row[1] != 0 {
			t.Errorf("bad row %v", row)
		}
	}
}

// quick.Check property: ite(f,g,h) == (f∧g)∨(¬f∧h) pointwise.
func TestIteQuick(t *testing.T) {
	m := New(4)
	cfg := &quick.Config{MaxCount: 200}
	err := quick.Check(func(s0, s1, s2 uint8, mask uint8) bool {
		mk := func(s uint8) int {
			f := m.True()
			for i := 0; i < 4; i++ {
				switch (s >> (2 * i)) & 3 {
				case 0:
					f = m.And(f, m.Var(i))
				case 1:
					f = m.Or(f, m.Not(m.Var(i)))
				case 2:
					f = m.Xor(f, m.Var(i))
				}
			}
			return f
		}
		f, g, h := mk(s0), mk(s1), mk(s2)
		ite := int(m.ite(int32(f), int32(g), int32(h)))
		a := make([]bool, 4)
		for i := range a {
			a[i] = mask&(1<<i) != 0
		}
		want := m.Eval(g, a)
		if !m.Eval(f, a) {
			want = m.Eval(h, a)
		}
		return m.Eval(ite, a) == want
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}
