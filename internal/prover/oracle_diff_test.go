package prover

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"predabs/internal/form"
)

// replay runs fn with every search replayed through the reference solver
// and fails the test on any disagreement.
func replay(t *testing.T, fn func()) {
	t.Helper()
	stop := ReplayAgainstOracle()
	fn()
	n, diffs := stop()
	for _, d := range diffs {
		t.Error(d)
	}
	if n == 0 {
		t.Fatal("no search was replayed")
	}
	t.Logf("%d searches agree with the reference solver", n)
}

// TestOracleQuickUnsatValid replays the decodeFormula quick-check space
// (Unsat of one formula, Valid of a pair) through the reference solver.
func TestOracleQuickUnsatValid(t *testing.T) {
	replay(t, func() {
		p := New()
		cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(21))}
		if err := quick.Check(func(hb, gb []byte) bool {
			if len(hb) > 8 {
				hb = hb[:8]
			}
			if len(gb) > 5 {
				gb = gb[:5]
			}
			h, g := decodeFormula(hb), decodeFormula(gb)
			p.Unsat(h)
			p.Valid(h, g)
			return true
		}, cfg); err != nil {
			t.Fatal(err)
		}
	})
}

// TestOracleQuickSessions replays blocking-clause enumerations over the
// decodeFormula space: every check's model, verdict and effort must match
// the reference model search.
func TestOracleQuickSessions(t *testing.T) {
	x, y := form.Var{Name: "x"}, form.Var{Name: "y"}
	tracked := []form.Formula{
		form.Cmp{Op: form.Gt, X: y, Y: x},
		form.Cmp{Op: form.Ne, X: x, Y: form.Num{V: 0}},
		form.Cmp{Op: form.Le, X: x, Y: form.Num{V: 3}},
	}
	replay(t, func() {
		p := New()
		cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(22))}
		if err := quick.Check(func(bs, cs []byte) bool {
			if len(bs) > 6 {
				bs = bs[:6]
			}
			if len(cs) > 3 {
				cs = cs[:3]
			}
			s := p.NewSession()
			defer s.Close()
			for _, f := range tracked {
				s.Track(f)
			}
			s.Assert(decodeFormula(cs))
			s.Assert(decodeFormula(bs))
			for i := 0; i < 10; i++ {
				v, m, _ := s.Check()
				if v != Sat {
					break
				}
				var lits []form.Formula
				for _, f := range tracked {
					val, _ := m.Eval(f)
					if val {
						lits = append(lits, f)
					} else {
						lits = append(lits, form.MkNot(f))
					}
				}
				s.Block(form.NNF(form.MkNot(form.MkAnd(lits...))))
			}
			return true
		}, cfg); err != nil {
			t.Fatal(err)
		}
	})
}

// TestOracleTheoryLeaves compares the dense linear arithmetic with the
// reference map-based one on random literal conjunctions mixing
// equalities, disequalities, orderings, linear combinations and
// uninterpreted terms, where elimination order and equality propagation
// matter.
func TestOracleTheoryLeaves(t *testing.T) {
	x, y, z := form.Var{Name: "x"}, form.Var{Name: "y"}, form.Var{Name: "z"}
	a, b, c := form.Var{Name: "a"}, form.Var{Name: "b"}, form.Var{Name: "c"}
	terms := []form.Term{
		x, y, z, a, b, c, form.Num{V: 0}, form.Num{V: 1}, form.Num{V: 3},
		form.Arith{Op: form.OpAdd, X: a, Y: form.Arith{Op: form.OpMul, X: form.Num{V: 3}, Y: b}},
		form.Arith{Op: form.OpSub, X: form.Arith{Op: form.OpMul, X: c, Y: form.Num{V: 2}}, Y: a},
		form.Arith{Op: form.OpAdd, X: x, Y: y},
		form.Arith{Op: form.OpSub, X: z, Y: form.Num{V: 2}},
		form.Arith{Op: form.OpMul, X: form.Num{V: 2}, Y: x},
		form.Neg{X: y},
		form.Deref{X: x},
		form.Sel{X: form.Deref{X: z}, Field: "f"},
		form.Arith{Op: form.OpMul, X: x, Y: y},
	}
	ops := []form.RelOp{form.Eq, form.Ne, form.Le, form.Lt}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 4000; i++ {
		n := 1 + rng.Intn(9)
		lits := make([]lit, n)
		for j := range lits {
			lits[j] = lit{ops[rng.Intn(len(ops))], terms[rng.Intn(len(terms))], terms[rng.Intn(len(terms))]}
		}
		if got, want := theoryConsistent(lits), oracleTheoryConsistent(lits); got != want {
			t.Fatalf("theoryConsistent(%v) = %v, reference %v", lits, got, want)
		}
	}
}

// TestSessionCacheKeyMatchesConjunction pins that a session's compiled
// assertions spell the same Unsat cache key as MkAnd over them, through
// flattening, constants and duplicates.
func TestSessionCacheKeyMatchesConjunction(t *testing.T) {
	x, y := form.Var{Name: "x"}, form.Var{Name: "y"}
	a := form.Cmp{Op: form.Lt, X: x, Y: y}
	b := form.Cmp{Op: form.Eq, X: x, Y: form.Num{V: 0}}
	c := form.MkOr(a, b)
	steps := []form.Formula{
		a, form.TrueF{}, form.MkAnd(b, c), a, form.And{Fs: []form.Formula{form.TrueF{}, c, form.MkAnd(a, b)}},
		form.Not{F: c}, form.FalseF{}, b,
	}
	s := New().NewSession()
	var asserted []form.Formula
	check := func() {
		t.Helper()
		if got, want := s.cacheKey(), "U\x00"+form.MkAnd(asserted...).String(); got != want {
			t.Fatalf("cache key %q, want %q", got, want)
		}
	}
	check()
	for _, f := range steps {
		s.Assert(f)
		asserted = append(asserted, f)
		check()
	}
}

// TestLinearArithmeticOverflowIsSound pins the Fourier–Motzkin overflow
// fix: 3x+2y is bounded by 0 and 5e18, which x = y = 0 satisfies, but
// eliminating x multiplies the bound by 3 past int64. A wrapped bound read
// as a negative ground fact and "proved" the conjunction unsatisfiable.
func TestLinearArithmeticOverflowIsSound(t *testing.T) {
	x, y := form.Var{Name: "x"}, form.Var{Name: "y"}
	sum := form.Arith{Op: form.OpAdd,
		X: form.Arith{Op: form.OpMul, X: form.Num{V: 3}, Y: x},
		Y: form.Arith{Op: form.OpMul, X: form.Num{V: 2}, Y: y}}
	big := form.Num{V: 5000000000000000000}
	p := New()
	if p.Unsat(form.MkAnd(form.Cmp{Op: form.Le, X: form.Num{V: 0}, Y: sum}, form.Cmp{Op: form.Le, X: sum, Y: big})) {
		t.Error("Unsat(0 <= 3x+2y <= 5e18) = true; x = y = 0 is a model")
	}
	if p.Valid(form.Cmp{Op: form.Ge, X: sum, Y: form.Num{V: 0}}, form.Cmp{Op: form.Gt, X: sum, Y: big}) {
		t.Error("Valid(3x+2y >= 0, 3x+2y > 5e18) = true; x = y = 0 refutes it")
	}
	// Precision away from the limits is unchanged.
	small := form.Num{V: 5}
	if !p.Unsat(form.MkAnd(form.Cmp{Op: form.Lt, X: small, Y: sum}, form.Cmp{Op: form.Le, X: sum, Y: small})) {
		t.Error("Unsat(5 < 3x+2y <= 5) = false")
	}
}

// TestCheckedArithmetic pins the overflow-checked helpers.
func TestCheckedArithmetic(t *testing.T) {
	const max, min = int64(1<<63 - 1), int64(-1 << 63)
	for _, c := range []struct {
		a, b int64
		ok   bool
	}{{3, 5, true}, {max, 1, true}, {max, 2, false}, {min, -1, false}, {-1, min, false}, {min, 1, true}, {1 << 32, 1 << 31, false}, {0, min, true}} {
		if _, ok := mulOK(c.a, c.b); ok != c.ok {
			t.Errorf("mulOK(%d, %d) ok = %v", c.a, c.b, ok)
		}
	}
	for _, c := range []struct {
		a, b int64
		ok   bool
	}{{max, 0, true}, {max, 1, false}, {min, -1, false}, {min, max, true}, {-5, 3, true}} {
		if _, ok := addOK(c.a, c.b); ok != c.ok {
			t.Errorf("addOK(%d, %d) ok = %v", c.a, c.b, ok)
		}
	}
	// Columns sort by the decimal spelling of their class ids, the order
	// "c<id>" names sorted in, which fixes elimination tie-breaks.
	ids := []int{2, 10, 1, 21, 3, 100}
	sortDecimal(ids)
	if fmt.Sprint(ids) != "[1 10 100 2 21 3]" {
		t.Errorf("sortDecimal = %v, want [1 10 100 2 21 3]", ids)
	}
	row := []int64{-4, 6, -7}
	if normalize(row, 2) != normOK || row[0] != -2 || row[1] != 3 || row[2] != -4 {
		t.Errorf("normalize floors the bound: got %v, want [-2 3 -4]", row)
	}
}

// TestSearchEffortCounters pins the effort counters on a query whose tree
// is known: x<y ∧ y<x branches x<y true (then y<x true: leaf, refuted;
// y<x false: pruned) and x<y false (pruned). A repeated uncached query
// searches again without the theory memo; a repeated session check
// answers its leaves from the memo.
func TestSearchEffortCounters(t *testing.T) {
	x, y := form.Var{Name: "x"}, form.Var{Name: "y"}
	f := form.MkAnd(form.Cmp{Op: form.Lt, X: x, Y: y}, form.Cmp{Op: form.Lt, X: y, Y: x})
	p := New()
	p.DisableCache = true
	if !p.Unsat(f) {
		t.Fatal("x<y && y<x not refuted")
	}
	if _, st := oracleDecide(f); p.SearchNodes() != st.nodes || p.TheoryLeaves() != st.leaves {
		t.Fatalf("nodes/leaves = %d/%d, reference %d/%d", p.SearchNodes(), p.TheoryLeaves(), st.nodes, st.leaves)
	}
	if p.TheoryMemoHits() != 0 {
		t.Fatalf("memo hits = %d on a first query", p.TheoryMemoHits())
	}
	leaves := p.TheoryLeaves()
	p.Unsat(f)
	if p.TheoryLeaves() != 2*leaves || p.TheoryMemoHits() != 0 {
		t.Fatalf("repeat query: leaves %d, memo hits %d; want %d and 0",
			p.TheoryLeaves(), p.TheoryMemoHits(), 2*leaves)
	}
	for i := 0; i < 2; i++ {
		s := p.NewSession()
		s.Assert(f)
		if v, _, _ := s.Check(); v != Unsat {
			t.Fatalf("session check %d: %v, want unsat", i, v)
		}
		s.Close()
	}
	if p.TheoryLeaves() != 4*leaves || p.TheoryMemoHits() != leaves {
		t.Fatalf("two session checks: leaves %d, memo hits %d; want %d and %d",
			p.TheoryLeaves(), p.TheoryMemoHits(), 4*leaves, leaves)
	}
}
