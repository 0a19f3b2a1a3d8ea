package prover

import (
	"context"
	"fmt"
	"testing"
	"time"

	"predabs/internal/budget"
	"predabs/internal/form"
)

// pigeonhole builds the propositionally unsatisfiable pigeonhole formula
// PHP(holes+1, holes) over boolean-flavoured atoms p_i_j == 1: every
// pigeon sits in some hole, no two pigeons share one. Its DPLL search
// visits many nodes without any single theory check dominating, which is
// exactly the shape a wall-clock limit must interrupt.
func pigeonhole(holes int) form.Formula {
	pigeons := holes + 1
	atom := func(i, j int) form.Formula {
		return form.Cmp{Op: form.Eq, X: form.Var{Name: fmt.Sprintf("p_%d_%d", i, j)}, Y: form.Num{V: 1}}
	}
	var clauses []form.Formula
	for i := 0; i < pigeons; i++ {
		var some []form.Formula
		for j := 0; j < holes; j++ {
			some = append(some, atom(i, j))
		}
		clauses = append(clauses, form.MkOr(some...))
	}
	for j := 0; j < holes; j++ {
		for i := 0; i < pigeons; i++ {
			for k := i + 1; k < pigeons; k++ {
				clauses = append(clauses, form.MkOr(form.MkNot(atom(i, j)), form.MkNot(atom(k, j))))
			}
		}
	}
	return form.MkAnd(clauses...)
}

func TestQueryTimeoutGivesUpSoundlyAndSkipsCache(t *testing.T) {
	php := pigeonhole(3)

	// Sanity: without a timeout the prover decides it.
	p := New()
	if !p.Unsat(php) {
		t.Fatal("prover cannot decide PHP(4,3) without limits")
	}

	p = New()
	bt := budget.New(context.Background(), budget.Limits{QueryTimeout: time.Nanosecond}, nil)
	p.Budget = bt
	if p.Unsat(php) {
		t.Fatal("timed-out query claimed unsat — unsound degradation")
	}
	if st := p.Stats(); st.ProverTimeouts != 1 || st.ProverGaveUp != 1 {
		t.Fatalf("Timeouts=%d GaveUp=%d, want 1/1", st.ProverTimeouts, st.ProverGaveUp)
	}
	evs := bt.Events()
	if len(evs) != 1 || evs[0].Stage != "prover" || evs[0].Limit != budget.LimitQueryTimeout {
		t.Fatalf("degradation log = %+v, want one prover/query-timeout event", evs)
	}

	// The timed-out verdict must not be memoized: with the limit lifted,
	// the same prover decides the query for real.
	p.Budget = nil
	if !p.Unsat(php) {
		t.Fatal("post-timeout retry did not recompute (cache poisoned by timeout)")
	}
	if p.CacheHits() != 0 {
		t.Fatalf("CacheHits = %d, want 0 (timeout result must not be cached)", p.CacheHits())
	}
	// The real verdict is cached as usual.
	if !p.Unsat(php) || p.CacheHits() != 1 {
		t.Fatalf("real verdict not cached (hits=%d)", p.CacheHits())
	}
}

func TestCancelledRunShortCircuitsQueries(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := New()
	p.Budget = budget.New(ctx, budget.Limits{}, nil)

	x := form.Var{Name: "x"}
	valid := form.Cmp{Op: form.Eq, X: x, Y: x}
	if p.Valid(form.TrueF{}, valid) {
		t.Fatal("cancelled prover claimed validity")
	}
	if st := p.Stats(); st.ProverCancels != 1 || st.ProverGaveUp != 1 {
		t.Fatalf("Cancels=%d GaveUp=%d, want 1/1", st.ProverCancels, st.ProverGaveUp)
	}

	// Nothing was cached, so a fresh uncancelled prover sharing no state
	// still decides it; and this prover decides it too once un-cancelled.
	p.Budget = nil
	if !p.Valid(form.TrueF{}, valid) {
		t.Fatal("trivially valid claim rejected after cancellation lifted")
	}
	if p.CacheHits() != 0 {
		t.Fatalf("CacheHits = %d, want 0 (cancel result must not be cached)", p.CacheHits())
	}
}

func TestMidQueryCancellation(t *testing.T) {
	php := pigeonhole(4)
	ctx, cancel := context.WithCancel(context.Background())
	p := New()
	p.Budget = budget.New(ctx, budget.Limits{}, nil)

	// Cancel concurrently with the query: whichever side wins, the answer
	// must be sound ("could not prove" or a genuine unsat) and the call
	// must return promptly.
	go cancel()
	done := make(chan bool, 1)
	go func() { done <- p.Unsat(php) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("query did not return after cancellation")
	}
}
