package abstract

import (
	"testing"

	"predabs/internal/form"
	"predabs/internal/prover"
)

// namesOnlyLinks is the link relation cut down to shared variable names:
// the relation the application rule of predLinks must strictly extend.
func namesOnlyLinks(preds []Pred) linkGraph {
	g := make(linkGraph, len(preds))
	for i := range g {
		g[i] = make([]bool, len(preds))
		for j := range preds {
			for _, v := range form.FormulaVars(preds[i].F) {
				for _, w := range form.FormulaVars(preds[j].F) {
					g[i][j] = g[i][j] || v == w
				}
			}
		}
	}
	return g
}

// allPositive is the cube asserting every predicate of a scope.
func allPositive(n int) []literal {
	cube := make([]literal, n)
	for i := range cube {
		cube[i] = literal{Pred: i, Pos: true}
	}
	return cube
}

// TestLinkRelationExact pins the cases that make uninterpreted
// applications count as shared symbols: two halves with no common
// variable, each satisfiable, whose conjunction the prover refutes
// through congruence. The relation must connect every such union; each
// case is also checked to fall apart under shared names alone, so
// dropping the application rule fails it.
func TestLinkRelationExact(t *testing.T) {
	cases := []struct {
		name string
		a, b []string
	}{
		{"fields of equal pointers", []string{"a == 5", "a->f == 1"}, []string{"b == 5", "b->f == 2"}},
		{"distinct addresses", []string{"p == &x", "p == 5"}, []string{"q == &y", "q == 5"}},
		{"deref of an address", []string{"p == 7", "*p == 1"}, []string{"q == &x", "q == 7", "x == 0"}},
		{"nonlinear product", []string{"x == 2", "x * x == 5"}, []string{"u == 2", "u * u == 6"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var preds []Pred
			conj := func(texts []string) form.Formula {
				var fs []form.Formula
				for _, text := range texts {
					p := mkPred(t, text)
					preds = append(preds, p)
					fs = append(fs, p.F)
				}
				return form.MkAnd(fs...)
			}
			a, b := conj(c.a), conj(c.b)
			pv := prover.New()
			if pv.Unsat(a) {
				t.Errorf("half %v is unsatisfiable", c.a)
			}
			if pv.Unsat(b) {
				t.Errorf("half %v is unsatisfiable", c.b)
			}
			if !pv.Unsat(form.MkAnd(a, b)) {
				t.Errorf("union of %v and %v not refuted", c.a, c.b)
			}
			cube := allPositive(len(preds))
			if !predLinks(preds).connected(cube) {
				t.Error("relation leaves the union disconnected")
			}
			if namesOnlyLinks(preds).connected(cube) {
				t.Error("halves share a variable name: the case does not exercise the application rule")
			}
		})
	}
}

// TestLinkRelationSplitsIndependentPredicates: predicates over disjoint
// variables with no application are unlinked, and so is an application
// from a plain predicate; a shared name under & or -> links.
func TestLinkRelationSplitsIndependentPredicates(t *testing.T) {
	preds := []Pred{
		mkPred(t, "x < y"),
		mkPred(t, "z > 1"),
		mkPred(t, "p->f == 0"),
		mkPred(t, "q == &z"),
		mkPred(t, "w == 3"),
	}
	g := predLinks(preds)
	for _, c := range []struct {
		i, j int
		want bool
	}{
		{0, 1, false}, // x < y, z > 1: disjoint names, linear
		{0, 2, false}, // only p->f is an application
		{1, 3, true},  // z under &
		{2, 3, true},  // both applications
		{4, 0, false},
		{4, 3, false},
	} {
		if g[c.i][c.j] != c.want || g[c.j][c.i] != c.want {
			t.Errorf("link %s ~ %s = %v, want %v", preds[c.i].Name, preds[c.j].Name, g[c.i][c.j], c.want)
		}
	}
}

// TestEnforceSkipsDisconnectedCubes: over two unlinked predicates the
// enforce search asks only the four singletons and skips the four
// pairs, and the skipped count reaches Stats.
func TestEnforceSkipsDisconnectedCubes(t *testing.T) {
	ab := newAbstractor(t, `int f(int x, int y) { return x; }`, DefaultOptions())
	preds := []Pred{mkPred(t, "x == 0"), mkPred(t, "y == 0")}
	if inv := ab.enforceExpr(ab.scopeOf(preds)); inv != nil {
		t.Errorf("enforce invariant %v, want none", inv)
	}
	if ab.Stats.CubesChecked != 4 || ab.Stats.CubesSkipped != 4 {
		t.Errorf("checked %d, skipped %d; want 4 and 4", ab.Stats.CubesChecked, ab.Stats.CubesSkipped)
	}
}
