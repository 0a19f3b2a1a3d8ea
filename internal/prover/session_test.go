package prover

import (
	"context"
	"testing"
	"time"

	"predabs/internal/budget"
	"predabs/internal/form"
)

func TestSessionBasicVerdicts(t *testing.T) {
	p := New()
	s := p.NewSession()
	defer s.Close()

	s.Track(pf(t, "x > 0"))
	s.Assert(pf(t, "x > 0"))
	v, vals, _ := s.Check()
	if v != Sat || len(vals) != 1 {
		t.Fatalf("x > 0: got %v %v, want sat with one value", v, vals)
	}
	if !vals[0] {
		t.Errorf("model does not satisfy x > 0")
	}

	s.Assert(pf(t, "x < 0"))
	v, vals, _ = s.Check()
	if v != Unsat || vals != nil {
		t.Fatalf("x > 0 && x < 0: got %v, want unsat", v)
	}

	if p.Sessions() != 1 || p.SessionChecks() != 2 || p.ModelsExtracted() != 1 {
		t.Errorf("counters: sessions=%d checks=%d models=%d, want 1/2/1",
			p.Sessions(), p.SessionChecks(), p.ModelsExtracted())
	}
}

func TestSessionTrackedModelExtraction(t *testing.T) {
	p := New()
	s := p.NewSession()
	defer s.Close()

	// The checked formula never mentions y, but tracking y <= 0 forces the
	// model to assign it a consistent truth value.
	s.Track(pf(t, "y <= 0"))
	s.Track(pf(t, "x == y"))
	s.Track(pf(t, "x > 3"))
	s.Assert(pf(t, "x > 3"))
	v, vals, _ := s.Check()
	if v != Sat || len(vals) != 3 {
		t.Fatalf("got %v %v, want sat with three values", v, vals)
	}
	if !vals[2] {
		t.Errorf("model does not satisfy the asserted x > 3")
	}
	// The model must be theory-consistent as a whole: x > 3 && x == y
	// forces y > 3, so y <= 0 must be false under the model.
	if yneg, xy := vals[0], vals[1]; xy && yneg {
		t.Errorf("model assigns x == y and y <= 0 under x > 3: theory-inconsistent")
	}
}

func TestSessionBlockingEnumeration(t *testing.T) {
	p := New()
	s := p.NewSession()
	defer s.Close()

	// Two free predicates over an unconstrained assertion: the blocking
	// loop must visit all four minterms, deterministically, then go unsat.
	preds := []form.Formula{pf(t, "a > 0"), pf(t, "b > 0")}
	for _, q := range preds {
		s.Track(q)
	}
	s.Assert(pf(t, "c == c"))

	var seen []string
	for {
		v, vals, _ := s.Check()
		if v == Unsat {
			break
		}
		if v != Sat {
			t.Fatalf("got %v, want sat|unsat", v)
		}
		if len(vals) != len(preds) {
			t.Fatalf("valuation %v, want one value per tracked predicate", vals)
		}
		key := ""
		var lits []form.Formula
		for i, q := range preds {
			if vals[i] {
				key += "1"
				lits = append(lits, q)
			} else {
				key += "0"
				lits = append(lits, form.NNF(form.MkNot(q)))
			}
		}
		seen = append(seen, key)
		s.Block(form.NNF(form.MkNot(form.MkAnd(lits...))))
		if len(seen) > 4 {
			t.Fatalf("enumeration did not terminate: %v", seen)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("enumerated %v, want all 4 minterms", seen)
	}
	dup := map[string]bool{}
	for _, k := range seen {
		if dup[k] {
			t.Fatalf("minterm %s enumerated twice: %v", k, seen)
		}
		dup[k] = true
	}
	// True-before-false branching in tracked registration order.
	if seen[0] != "11" {
		t.Errorf("first minterm %s, want 11 (true-first order)", seen[0])
	}
	if p.BlockingClauses() != 4 {
		t.Errorf("BlockingClauses = %d, want 4", p.BlockingClauses())
	}
}

func TestSessionCacheInterop(t *testing.T) {
	p := New()
	// An Unsat call populates the cache; the session check on the same
	// formula string answers from it without a search.
	f := form.MkAnd(pf(t, "x > 0"), pf(t, "x < 0"))
	if !p.Unsat(f) {
		t.Fatal("Unsat(x>0 && x<0) = false")
	}
	s := p.NewSession()
	defer s.Close()
	s.Assert(pf(t, "x > 0"))
	s.Assert(pf(t, "x < 0"))
	hits0 := p.CacheHits()
	if v, _, _ := s.Check(); v != Unsat {
		t.Fatalf("cached check: got %v, want unsat", v)
	}
	if p.CacheHits() != hits0+1 {
		t.Errorf("cache hits = %d, want %d (session check should hit Unsat cache)",
			p.CacheHits(), hits0+1)
	}

	// The other direction: a session check fills the cache that Unsat of
	// the same conjunction then answers from, for either verdict.
	for _, tc := range []struct {
		asserted []string
		want     Verdict
	}{
		{[]string{"y > 0", "y < 5"}, Sat},
		{[]string{"y > 0", "y < 0"}, Unsat},
	} {
		p := New()
		s := p.NewSession()
		var fs []form.Formula
		for _, q := range tc.asserted {
			s.Assert(pf(t, q))
			fs = append(fs, pf(t, q))
		}
		if v, _, _ := s.Check(); v != tc.want {
			t.Fatalf("%v: check got %v, want %v", tc.asserted, v, tc.want)
		}
		s.Close()
		hits0, nodes0 := p.CacheHits(), p.Stats().SearchNodes
		if got := p.Unsat(form.MkAnd(fs...)); got != (tc.want == Unsat) {
			t.Errorf("%v: Unsat after a %v check = %v", tc.asserted, tc.want, got)
		}
		if p.CacheHits() != hits0+1 || p.Stats().SearchNodes != nodes0 {
			t.Errorf("%v: Unsat after a %v check: cache hits %d -> %d, search nodes %d -> %d; want one hit and no search",
				tc.asserted, tc.want, hits0, p.CacheHits(), nodes0, p.Stats().SearchNodes)
		}
	}

	// Domain checks share the entry too: a session over a cube's literal
	// formulas answers from Domain.Unsat's refutation of the cube, and
	// Domain.Unsat of the cube answers from the session's verdict.
	preds := domainPreds()
	litOf := func(l Lit) form.Formula {
		if l.Pos {
			return preds[l.Pred]
		}
		return form.NNF(form.MkNot(preds[l.Pred]))
	}
	refuted := []Lit{{Pred: 2, Pos: true}, {Pred: 0, Pos: false}} // p != 0 && x < y, x >= y
	{
		p := New()
		if !domainOf(p, preds).Unsat(refuted, nil) {
			t.Fatalf("Domain.Unsat(%v) = false", refuted)
		}
		s := p.NewSession()
		for _, l := range refuted {
			s.Assert(litOf(l))
		}
		hits0, nodes0 := p.CacheHits(), p.Stats().SearchNodes
		if v, _, _ := s.Check(); v != Unsat {
			t.Fatalf("session over a refuted cube: got %v, want unsat", v)
		}
		s.Close()
		if p.CacheHits() != hits0+1 || p.Stats().SearchNodes != nodes0 {
			t.Errorf("session after Domain.Unsat: cache hits %d -> %d, search nodes %d -> %d; want one hit and no search",
				hits0, p.CacheHits(), nodes0, p.Stats().SearchNodes)
		}
	}
	for _, tc := range []struct {
		cube []Lit
		want Verdict
	}{
		{[]Lit{{Pred: 2, Pos: true}, {Pred: 1, Pos: true}}, Sat},
		{refuted, Unsat},
	} {
		p := New()
		s := p.NewSession()
		for _, l := range tc.cube {
			s.Assert(litOf(l))
		}
		if v, _, _ := s.Check(); v != tc.want {
			t.Fatalf("%v: check got %v, want %v", tc.cube, v, tc.want)
		}
		s.Close()
		hits0, nodes0 := p.CacheHits(), p.Stats().SearchNodes
		if got := domainOf(p, preds).Unsat(tc.cube, nil); got != (tc.want == Unsat) {
			t.Errorf("%v: Domain.Unsat after a %v check = %v", tc.cube, tc.want, got)
		}
		if p.CacheHits() != hits0+1 || p.Stats().SearchNodes != nodes0 {
			t.Errorf("%v: Domain.Unsat after a %v check: cache hits %d -> %d, search nodes %d -> %d; want one hit and no search",
				tc.cube, tc.want, hits0, p.CacheHits(), nodes0, p.Stats().SearchNodes)
		}
	}
}

func TestSessionTimeoutNeverCached(t *testing.T) {
	// x > 0 ∧ x < 0 ∧ (a > 0 ∨ a < 0) ∧ … ∧ (f > 0 ∨ f < 0): every
	// propositional leaf is theory-inconsistent, so the search runs far
	// more than checkStride nodes before it can answer and the deadline
	// is polled mid-search.
	query := func() form.Formula {
		fs := []form.Formula{pf(t, "x > 0"), pf(t, "x < 0")}
		for _, v := range []string{"a", "b", "c", "d", "e", "f"} {
			fs = append(fs, form.MkOr(pf(t, v+" > 0"), pf(t, v+" < 0")))
		}
		return form.MkAnd(fs...)
	}
	untimed := New()
	us := untimed.NewSession()
	us.Assert(query())
	if v, _, _ := us.Check(); v != Unsat {
		t.Fatalf("untimed check = %v, want unsat", v)
	}
	us.Close()
	if n := untimed.Stats().SearchNodes; n <= checkStride {
		t.Fatalf("untimed search took %d nodes, want more than checkStride (%d)", n, checkStride)
	}

	p := New()
	// 1ns: the first poll finds the deadline passed.
	p.Budget = budget.New(context.Background(), budget.Limits{QueryTimeout: 1}, nil)
	s := p.NewSession()
	defer s.Close()
	s.Assert(query())
	v, _, limit := s.Check()
	if v != Unknown {
		t.Fatalf("verdict %v inside a 1ns timeout, want unknown", v)
	}
	if limit != budget.LimitQueryTimeout {
		t.Errorf("limit = %q, want %q", limit, budget.LimitQueryTimeout)
	}
	if n := p.CacheSize(); n != 0 {
		t.Errorf("timed-out session check populated the cache (%d entries)", n)
	}
	if st := p.Stats(); st.ProverTimeouts == 0 || st.ProverGaveUp == 0 {
		t.Errorf("timeout counters not bumped: timeouts=%d gaveUp=%d", st.ProverTimeouts, st.ProverGaveUp)
	}
}

func TestSessionCancelledRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := New()
	p.Budget = budget.New(ctx, budget.Limits{}, nil)
	s := p.NewSession()
	defer s.Close()
	s.Assert(pf(t, "x > 0"))
	v, _, limit := s.Check()
	if v != Unknown || limit != budget.LimitDeadline {
		t.Fatalf("cancelled run: got %v/%q, want unknown/%q", v, limit, budget.LimitDeadline)
	}
	if p.Stats().ProverCancels == 0 {
		t.Error("cancel counter not bumped")
	}
}

func TestSessionDeterministicModels(t *testing.T) {
	// The same session script must yield the same model sequence.
	run := func() []string {
		p := New()
		s := p.NewSession()
		defer s.Close()
		s.Track(pf(t, "x > 1"))
		s.Track(pf(t, "y > 2"))
		s.Assert(pf(t, "x + y > 0"))
		var out []string
		for i := 0; i < 3; i++ {
			v, vals, _ := s.Check()
			if v != Sat {
				out = append(out, v.String())
				break
			}
			a, b := vals[0], vals[1]
			key := ""
			for _, bit := range []bool{a, b} {
				if bit {
					key += "1"
				} else {
					key += "0"
				}
			}
			out = append(out, key)
			var lits []form.Formula
			for i, q := range []string{"x > 1", "y > 2"} {
				if []bool{a, b}[i] {
					lits = append(lits, pf(t, q))
				} else {
					lits = append(lits, form.NNF(form.MkNot(pf(t, q))))
				}
			}
			s.Block(form.NNF(form.MkNot(form.MkAnd(lits...))))
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs diverge in length: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %v vs %v", i, a, b)
		}
	}
}

func TestSessionUseAfterClosePanics(t *testing.T) {
	p := New()
	s := p.NewSession()
	s.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Assert on closed session did not panic")
		}
	}()
	s.Assert(form.TrueF{})
}

func TestSessionCheckIsFastEnough(t *testing.T) {
	// Smoke guard: a small blocking loop should finish instantly; if the
	// tracked-atom branching ever regresses to re-exploring blocked space
	// pathologically this will show up as a timeout in CI.
	p := New()
	s := p.NewSession()
	defer s.Close()
	preds := []string{"a > 0", "b > 0", "c > 0", "d > 0", "e > 0"}
	for _, q := range preds {
		s.Track(pf(t, q))
	}
	s.Assert(pf(t, "a + b + c + d + e > 0"))
	start := time.Now()
	n := 0
	for {
		v, vals, _ := s.Check()
		if v != Sat {
			break
		}
		n++
		var lits []form.Formula
		for i, q := range preds {
			if vals[i] {
				lits = append(lits, pf(t, q))
			} else {
				lits = append(lits, form.NNF(form.MkNot(pf(t, q))))
			}
		}
		s.Block(form.NNF(form.MkNot(form.MkAnd(lits...))))
		if n > 64 {
			t.Fatal("runaway enumeration")
		}
	}
	if n == 0 {
		t.Fatal("no models at all")
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("enumeration of %d minterms took %v", n, d)
	}
}
