package prover

import (
	"testing"

	"predabs/internal/form"
)

// domainPreds is a predicate set with every shape MkAnd treats
// specially: comparisons over shared terms, a conjunction (flattened into
// a cube) and a disjunction (whose negation is one), a duplicate, and
// the constants.
func domainPreds() []form.Formula {
	x, y, p := form.Var{Name: "x"}, form.Var{Name: "y"}, form.Var{Name: "p"}
	lt := form.Cmp{Op: form.Lt, X: x, Y: y}
	return []form.Formula{
		lt,
		form.Cmp{Op: form.Eq, X: form.Deref{X: p}, Y: x},
		form.And{Fs: []form.Formula{form.Cmp{Op: form.Ne, X: p, Y: form.Num{V: 0}}, lt}},
		form.Or{Fs: []form.Formula{form.Cmp{Op: form.Eq, X: x, Y: form.Num{V: 1}}, form.Cmp{Op: form.Gt, X: y, Y: form.Num{V: 2}}}},
		lt,
		form.TrueF{},
		form.And{Fs: []form.Formula{form.TrueF{}, form.FalseF{}}},
	}
}

// domainOf builds preds' domain on p, with each negation in NNF.
func domainOf(p *Prover, preds []form.Formula) *Domain {
	return NewDomain(p, len(preds), func(i int) (form.Formula, form.Formula) {
		return preds[i], form.NNF(form.MkNot(preds[i]))
	})
}

// domainCubes lists every cube of one to three literals over n
// predicates.
func domainCubes(n int) [][]Lit {
	var out [][]Lit
	var rec func(cube []Lit, start int)
	rec = func(cube []Lit, start int) {
		if len(cube) > 0 {
			out = append(out, append([]Lit(nil), cube...))
		}
		if len(cube) == 3 {
			return
		}
		for i := start; i < n; i++ {
			for _, pos := range []bool{true, false} {
				rec(append(cube, Lit{Pred: i, Pos: pos}), i+1)
			}
		}
	}
	rec(nil, 0)
	return out
}

// cubeConj is the conjunction Valid and Unsat are asked of a cube.
func cubeConj(preds []form.Formula, cube []Lit) form.Formula {
	fs := make([]form.Formula, len(cube))
	for i, l := range cube {
		fs[i] = preds[l.Pred]
		if !l.Pos {
			fs[i] = form.NNF(form.MkNot(preds[l.Pred]))
		}
	}
	return form.MkAnd(fs...)
}

// TestDomainMatchesQueries asks every cube's checks once through a
// Domain and once through Valid and Unsat of the cube's conjunction, on
// two fresh provers: each key, each verdict and every counter must agree.
func TestDomainMatchesQueries(t *testing.T) {
	preds := domainPreds()
	goals := []form.Formula{form.Cmp{Op: form.Le, X: form.Var{Name: "x"}, Y: form.Var{Name: "y"}}, preds[3]}
	viaDomain, viaQueries := New(), New()
	d := domainOf(viaDomain, preds)
	for _, cube := range domainCubes(len(preds)) {
		f := cubeConj(preds, cube)
		for _, goal := range goals {
			g := d.Goal(goal)
			if got, want := d.Key(cube, g), "V\x00"+f.String()+"\x00"+goal.String(); got != want {
				t.Errorf("Key = %q, want %q", got, want)
			}
			// Ask twice, so the second check is a cache hit.
			for i := 0; i < 2; i++ {
				if got, want := d.Valid(cube, g), viaQueries.Valid(f, goal); got != want {
					t.Errorf("Valid(%s => %s) = %v, want %v", f, goal, got, want)
				}
			}
		}
		if got, want := d.Key(cube, nil), "U\x00"+f.String(); got != want {
			t.Errorf("Key = %q, want %q", got, want)
		}
		if got, want := d.Unsat(cube, nil), viaQueries.Unsat(f); got != want {
			t.Errorf("Unsat(%s) = %v, want %v", f, got, want)
		}
	}
	got, want := viaDomain.Stats(), viaQueries.Stats()
	got.SolverTime, want.SolverTime = 0, 0
	if got != want {
		t.Errorf("domain counters %+v, queries %+v", got, want)
	}
	if got.CacheHits == 0 || got.TheoryLeaves == 0 {
		t.Errorf("counters %+v: the cubes exercised no cache hit or no theory leaf", got)
	}
}

// TestDomainHitZeroAlloc pins that a warm Domain check answered from the
// cache, with no tracer, allocates nothing: the key is assembled in a
// pooled searcher's scratch and looked up without building a string.
func TestDomainHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	preds := domainPreds()
	d := domainOf(New(), preds)
	g := d.Goal(form.Cmp{Op: form.Le, X: form.Var{Name: "x"}, Y: form.Var{Name: "y"}})
	cube := []Lit{{Pred: 2, Pos: true}, {Pred: 1, Pos: false}, {Pred: 4, Pos: true}}
	d.Valid(cube, g)
	d.Unsat(cube, nil)
	for name, fn := range map[string]func(){
		"Valid": func() { d.Valid(cube, g) },
		"Unsat": func() { d.Unsat(cube, nil) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("warm Domain.%s hit: %v allocs, want 0", name, n)
		}
	}
}
