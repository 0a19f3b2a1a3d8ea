package prover

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
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
// decodeFormula space: every check's verdict, effort and tracked
// formulas' values must match the reference model search. Besides
// single comparisons it tracks compound roots — a conjunction, a
// disjunction, a negated comparison — and a comparison MkCmp folds to a
// constant.
func TestOracleQuickSessions(t *testing.T) {
	x, y := form.Var{Name: "x"}, form.Var{Name: "y"}
	tracked := []form.Formula{
		form.Cmp{Op: form.Gt, X: y, Y: x},
		form.Cmp{Op: form.Ne, X: x, Y: form.Num{V: 0}},
		form.Cmp{Op: form.Le, X: x, Y: form.Num{V: 3}},
		form.MkAnd(form.Cmp{Op: form.Lt, X: x, Y: form.Num{V: 2}}, form.Cmp{Op: form.Eq, X: y, Y: form.Num{V: 1}}),
		form.MkOr(form.Cmp{Op: form.Eq, X: x, Y: y}, form.Cmp{Op: form.Gt, X: x, Y: form.Num{V: 0}}),
		form.Not{F: form.Cmp{Op: form.Ge, X: y, Y: form.Num{V: 2}}},
		form.MkCmp(form.Lt, form.Num{V: 1}, form.Num{V: 2}),
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
				v, vals, _ := s.Check()
				if v != Sat {
					break
				}
				var lits []form.Formula
				for j, f := range tracked {
					if vals[j] {
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

// TestOracleTheoryLeaves compares the integer theory check with the
// reference string-keyed closure and map-based linear arithmetic on
// random literal conjunctions mixing equalities, disequalities,
// orderings, linear combinations and uninterpreted terms, where
// elimination order and equality propagation matter. After the
// congruence phase both closures must hold the same nodes in the same
// classes: the linear arithmetic's column order follows node ids. After
// the arithmetic, whose witness skips probes the reference runs, they
// must reach the same verdict and the same classes.
func TestOracleTheoryLeaves(t *testing.T) {
	tab := newTermTable()
	var th theory
	for _, lits := range randomLeaves() {
		ids := compileLits(tab, lits)
		snap := tab.snapshot()
		ok := th.assert(snap, ids)
		ref, refOK := refAssert(lits)
		if ok != refOK {
			t.Fatalf("congruence phase of %v: %v, reference %v", lits, ok, refOK)
		}
		if got, want := classes(len(th.c.nodes), th.c.find), refClasses(ref); !slices.Equal(got, want) {
			t.Fatalf("congruence phase of %v: classes %v, reference %v", lits, got, want)
		}
		if !ok {
			continue
		}
		if got, want := th.arith(snap, ids), oracleArith(ref, lits); got != want {
			t.Fatalf("arithmetic of %v: %v, reference %v", lits, got, want)
		}
		if got, want := classes(len(th.c.nodes), th.c.find), refClasses(ref); !slices.Equal(got, want) {
			t.Fatalf("arithmetic of %v: classes %v, reference %v", lits, got, want)
		}
	}
}

// randomLeaves returns the theory leaves TestOracleTheoryLeaves and
// TestWitnessSatisfiesBase check: two hand-written ones, then 4,000
// random conjunctions from a fixed seed.
func randomLeaves() [][]lit {
	x, y, z := form.Var{Name: "x"}, form.Var{Name: "y"}, form.Var{Name: "z"}
	a, b, c := form.Var{Name: "a"}, form.Var{Name: "b"}, form.Var{Name: "c"}
	minus1, negOne := form.Num{V: -1}, form.Neg{X: form.Num{V: 1}} // both print "-1"
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
		form.AddrOf{X: x}, form.AddrOf{X: y},
		form.Idx{X: a, I: x},
		form.Sel{X: form.Var{Name: "s"}, Field: "f"},
		minus1, negOne,
	}
	ops := []form.RelOp{form.Eq, form.Ne, form.Le, form.Lt}
	cases := [][]lit{
		{{form.Eq, minus1, x}, {form.Lt, negOne, y}, {form.Le, y, x}},
		{{form.Eq, negOne, x}, {form.Lt, minus1, y}, {form.Le, y, x}},
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 4000; i++ {
		n := 1 + rng.Intn(9)
		lits := make([]lit, n)
		for j := range lits {
			lits[j] = lit{ops[rng.Intn(len(ops))], terms[rng.Intn(len(terms))], terms[rng.Intn(len(terms))]}
		}
		cases = append(cases, lits)
	}
	return cases
}

// refClasses names each reference node's class by its least member.
func refClasses(ref *refCC) []int32 {
	return classes(len(ref.nodes), func(i int32) int32 { return int32(ref.find(int(i))) })
}

// TestWitnessSatisfiesBase runs the combine rounds of every leaf
// TestOracleTheoryLeaves checks, as arith runs them, and requires each
// round's witness to be an integer point of that round's normalized base
// rows, the system every skipped probe would have extended.
func TestWitnessSatisfiesBase(t *testing.T) {
	tab := newTermTable()
	var th theory
	rounds, witnesses := 0, 0
	for _, lits := range randomLeaves() {
		ids := compileLits(tab, lits)
		snap := tab.snapshot()
		if !th.assert(snap, ids) {
			continue
		}
		c, la := &th.c, &th.la
		la.init(c, snap, ids)
		for iter := 0; iter < maxCombineIters && !c.failed; iter++ {
			la.build(c)
			if f, prec := la.feasible(nil); !f || !prec {
				break
			}
			rounds++
			// A round without a witness probes every pair, as arith does.
			if la.witOK = la.witness(c); la.witOK {
				witnesses++
				stride := la.w + 1
				for off := 0; off < len(la.base); off += stride {
					row := la.base[off : off+stride]
					var sum big.Int
					for j, co := range row[:la.w] {
						sum.Add(&sum, new(big.Int).Mul(big.NewInt(co), big.NewInt(la.wit[j])))
					}
					if sum.Cmp(big.NewInt(row[la.w])) > 0 {
						t.Fatalf("%v: witness %v violates base row %v", lits, la.wit, row)
					}
				}
			}
			if refutesNeq(la) || !la.propagateEqualities(c) {
				break
			}
		}
	}
	// Terms like 2*x and 3*b can leave a level no integer once the other
	// columns have values. Retrying the free columns finds a witness in
	// all but 37 of the 3,142 feasible rounds; the rest probe every pair
	// (TestNoWitnessProbesInFull).
	if witnesses < 3105 || rounds-witnesses > 37 {
		t.Fatalf("witnesses in %d of %d feasible rounds, want at least 3105 and at most 37 rounds without one", witnesses, rounds)
	}
}

// refutesNeq reports whether the arithmetic refutes one of the round's
// disequalities, which ends arith's rounds.
func refutesNeq(la *laSystem) bool {
	for off := 0; off < len(la.neqs); off += la.w + 1 {
		if row := la.neqs[off : off+la.w+1]; !la.separates(row) && la.entailsZero(row) {
			return true
		}
	}
	return false
}

// TestNoWitnessProbesInFull pins the fallback: 2a = 3b + 1 with b <= 5
// has integer points, but the elimination fixes b at its own level
// (b = 0, the bound nearest 0), which leaves a no integer; b is not free
// there, so the retry over free columns cannot move it, and the round
// has no witness. It must then probe every pair and reach the
// reference's merges: x <= y <= x entails x == y, which congruence lifts
// to *x == *y.
func TestNoWitnessProbesInFull(t *testing.T) {
	x, y, a, b := form.Var{Name: "x"}, form.Var{Name: "y"}, form.Var{Name: "a"}, form.Var{Name: "b"}
	lits := []lit{
		{form.Eq, form.Arith{Op: form.OpMul, X: form.Num{V: 2}, Y: a},
			form.Arith{Op: form.OpAdd, X: form.Arith{Op: form.OpMul, X: form.Num{V: 3}, Y: b}, Y: form.Num{V: 1}}},
		{form.Le, b, form.Num{V: 5}},
		{form.Le, x, y},
		{form.Le, y, x},
		{form.Ne, form.Deref{X: x}, form.Deref{X: a}},
		{form.Eq, form.Deref{X: y}, b},
	}
	tab := newTermTable()
	ids := compileLits(tab, lits)
	snap := tab.snapshot()
	var th theory
	if !th.assert(snap, ids) {
		t.Fatal("congruence phase refuted the leaf")
	}
	th.la.fullRounds, th.la.probes = 0, 0
	got := th.arith(snap, ids)
	ref, _ := refAssert(lits)
	if want := oracleArith(ref, lits); got != want {
		t.Fatalf("arithmetic: %v, reference %v", got, want)
	}
	if th.la.fullRounds == 0 {
		t.Fatalf("a round found a witness; the leaf no longer tests the fallback")
	}
	if th.la.probes == 0 || th.c.unions == 0 {
		t.Fatalf("probes %d, unions %d: the fallback must probe and merge", th.la.probes, th.c.unions)
	}
	if got, want := classes(len(th.c.nodes), th.c.find), refClasses(ref); !slices.Equal(got, want) {
		t.Fatalf("classes %v, reference %v", got, want)
	}
}

// compileLits compiles literals through the table, as the first sight of
// a comparison does.
func compileLits(tab *termTable, lits []lit) []int32 {
	tab.mu.Lock()
	defer tab.mu.Unlock()
	ids := make([]int32, len(lits))
	for i, l := range lits {
		ids[i] = tab.lit(l)
	}
	return ids
}

// classes names each of n nodes' class by its least member.
func classes(n int, find func(int32) int32) []int32 {
	least := map[int32]int32{}
	out := make([]int32, n)
	for i := int32(0); i < int32(n); i++ {
		r := find(i)
		if _, ok := least[r]; !ok {
			least[r] = i
		}
		out[i] = least[r]
	}
	return out
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
		if got, want := string(s.key(new(searcher))), "U\x00"+form.MkAnd(asserted...).String(); got != want {
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
	ids := []int32{2, 10, 1, 21, 3, 100}
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
	if _, st := oracleDecide(f); p.Stats().SearchNodes != st.nodes || p.Stats().TheoryLeaves != st.leaves {
		t.Fatalf("nodes/leaves = %d/%d, reference %d/%d", p.Stats().SearchNodes, p.Stats().TheoryLeaves, st.nodes, st.leaves)
	}
	if p.Stats().TheoryMemoHits != 0 {
		t.Fatalf("memo hits = %d on a first query", p.Stats().TheoryMemoHits)
	}
	leaves := p.Stats().TheoryLeaves
	p.Unsat(f)
	if p.Stats().TheoryLeaves != 2*leaves || p.Stats().TheoryMemoHits != 0 {
		t.Fatalf("repeat query: leaves %d, memo hits %d; want %d and 0",
			p.Stats().TheoryLeaves, p.Stats().TheoryMemoHits, 2*leaves)
	}
	for i := 0; i < 2; i++ {
		s := p.NewSession()
		s.Assert(f)
		if v, _, _ := s.Check(); v != Unsat {
			t.Fatalf("session check %d: %v, want unsat", i, v)
		}
		s.Close()
	}
	if p.Stats().TheoryLeaves != 4*leaves || p.Stats().TheoryMemoHits != leaves {
		t.Fatalf("two session checks: leaves %d, memo hits %d; want %d and %d",
			p.Stats().TheoryLeaves, p.Stats().TheoryMemoHits, 4*leaves, leaves)
	}
}
