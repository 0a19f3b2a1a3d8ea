package bdd

import (
	"math/rand"
	"testing"
)

func TestImpliesAndIff(t *testing.T) {
	m := New(2)
	a, b := m.Var(0), m.Var(1)
	// a → b false only at a=1,b=0.
	imp := m.Implies(a, b)
	if m.Eval(imp, []bool{true, false}) {
		t.Error("1→0 should be false")
	}
	if !m.Eval(imp, []bool{false, false}) {
		t.Error("0→0 should be true")
	}
	iff := m.Iff(a, b)
	if !m.Eval(iff, []bool{true, true}) || m.Eval(iff, []bool{true, false}) {
		t.Error("iff broken")
	}
}

func TestRestrictThenSupport(t *testing.T) {
	m := New(4)
	f := m.And(m.Var(0), m.Or(m.Var(1), m.Var(2)))
	g := m.Restrict(f, 1, true)
	// With v1=1, f reduces to v0.
	if g != m.Var(0) {
		t.Errorf("restrict: got node %d, want %d", g, m.Var(0))
	}
	// Its support is {v0}: quantifying v0 out changes it, quantifying
	// the other variables out does not.
	if m.Exists(g, []int{1, 2, 3}) != g || m.Exists(g, []int{0}) == g {
		t.Errorf("support of node %d is not {v0}", g)
	}
}

func TestAddVarGrowsManager(t *testing.T) {
	m := New(1)
	v := m.AddVar()
	if v != 1 || m.NumVars() != 2 {
		t.Fatalf("AddVar: %d, NumVars %d", v, m.NumVars())
	}
	f := m.And(m.Var(0), m.Var(v))
	if !m.Eval(f, []bool{true, true}) || m.Eval(f, []bool{true, false}) {
		t.Error("new variable unusable")
	}
}

func TestReplaceWithOverlappingRange(t *testing.T) {
	// Rename into variables that interleave with the existing support.
	m := New(6)
	f := m.And(m.Var(1), m.Not(m.Var(3)))
	g := m.Replace(f, map[int]int{1: 2, 3: 0})
	want := m.And(m.Var(2), m.Not(m.Var(0)))
	if g != want {
		t.Error("interleaved replace failed")
	}
}

func TestAllSatCoversExactly(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	for trial := 0; trial < 60; trial++ {
		m := New(5)
		f, _ := randomFormula(m, r, 3)
		rows := m.AllSat(f, []int{0, 1, 2, 3, 4})
		// Every row satisfies f, and there is one row per model.
		for _, row := range rows {
			a := make([]bool, 5)
			for i, b := range row {
				a[i] = b == 1
			}
			if !m.Eval(f, a) {
				t.Fatalf("AllSat row %v does not satisfy f", row)
			}
		}
		models := 0
		for mask := 0; mask < 1<<5; mask++ {
			a := make([]bool, 5)
			for i := range a {
				a[i] = mask&(1<<i) != 0
			}
			if m.Eval(f, a) {
				models++
			}
		}
		if len(rows) != models {
			t.Fatalf("AllSat %d rows, %d models", len(rows), models)
		}
	}
}

func TestNodeSharingAcrossFormulas(t *testing.T) {
	m := New(3)
	before := m.NumNodes()
	f := m.And(m.Var(0), m.Var(1))
	mid := m.NumNodes()
	// Rebuilding the identical function allocates nothing new.
	g := m.And(m.Var(0), m.Var(1))
	if g != f {
		t.Fatal("hash consing broken")
	}
	if m.NumNodes() != mid {
		t.Error("identical formula allocated nodes")
	}
	_ = before
}
