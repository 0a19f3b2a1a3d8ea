package prover

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"predabs/internal/budget"
	"predabs/internal/form"
	"predabs/internal/trace"
)

// faultCall is one question put to Prover.Fault.
type faultCall struct{ kind, key string }

// recordFaults installs a Fault that records each question and answers
// with fire.
func recordFaults(p *Prover, fire func(kind string, key []byte) bool) *[]faultCall {
	var calls []faultCall
	p.Fault = func(kind string, key []byte) bool {
		calls = append(calls, faultCall{kind, string(key)})
		return fire(kind, key)
	}
	return &calls
}

// TestFaultNotCountedCachedOrTraced: a faulted Valid, Unsat, Domain check
// or Session.Check answers "could not prove", and leaves no count, no
// cache entry and no trace event behind.
func TestFaultNotCountedCachedOrTraced(t *testing.T) {
	var events bytes.Buffer
	p := New()
	p.Trace = trace.New(trace.Config{JSONL: &events})
	x := form.Var{Name: "x"}
	one := form.Cmp{Op: form.Eq, X: x, Y: form.Num{V: 1}}
	two := form.Cmp{Op: form.Eq, X: x, Y: form.Num{V: 2}}
	d := domainOf(p, []form.Formula{one, two})
	g := d.Goal(form.NNF(form.MkNot(two)))
	cube := []Lit{{Pred: 0, Pos: true}}
	sess := p.NewSession()
	defer sess.Close()
	sess.Assert(form.MkAnd(one, two))
	// Each claim holds, so an unproved one is the fault's doing.
	var limit string
	proved := func() string {
		v, _, l := sess.Check()
		limit = l
		return fmt.Sprint(v == Unsat, p.Valid(one, one), p.Unsat(form.MkAnd(one, two)),
			d.Valid(cube, g), d.Unsat([]Lit{{Pred: 0, Pos: true}, {Pred: 1, Pos: true}}, nil))
	}

	calls := recordFaults(p, func(string, []byte) bool { return true })
	if got := proved(); got != "false false false false false" || limit != budget.LimitProverBudget {
		t.Fatalf("faulted queries proved %s, session limit %q: want nothing proved, the prover budget", got, limit)
	}
	kinds := []string{"session", "valid", "unsat", "valid", "unsat"}
	if len(*calls) != len(kinds) {
		t.Fatalf("Fault asked %d times, want %d", len(*calls), len(kinds))
	}
	for i, c := range *calls {
		if c.kind != kinds[i] {
			t.Errorf("Fault call %d has kind %q, want %q", i, c.kind, kinds[i])
		}
	}
	if want := d.Key(cube, g); (*calls)[3].key != want {
		t.Errorf("Domain check faulted on key %q, want its cache key %q", (*calls)[3].key, want)
	}
	if got := p.Stats(); got != (Stats{ProverSessions: 1}) {
		t.Errorf("faulted queries were counted: %+v", got)
	}
	if n := len(p.ExportCache()); n != 0 {
		t.Errorf("faulted queries left %d cache entries", n)
	}
	if events.Len() != 0 {
		t.Errorf("faulted queries were traced:\n%s", events.String())
	}

	p.Fault = nil
	if got := proved(); got != "true true true true true" {
		t.Fatalf("fault-free queries proved %s, want every claim", got)
	}
	if got := p.Stats(); got.ProverCalls != 4 || got.SessionChecks != 1 || events.Len() == 0 {
		t.Errorf("fault-free queries went uncounted or untraced: %+v", got)
	}
}

// TestDomainFaultMatchesQueries: under one fault schedule, every Domain
// check gets the fault decision of Valid or Unsat of the cube's
// conjunction, because Fault sees the same kind and key.
func TestDomainFaultMatchesQueries(t *testing.T) {
	fire := func(kind string, key []byte) bool {
		h := fnv.New64a()
		h.Write([]byte(kind))
		h.Write(key)
		return h.Sum64()%3 == 0
	}
	preds := domainPreds()
	goal := form.Cmp{Op: form.Le, X: form.Var{Name: "x"}, Y: form.Var{Name: "y"}}
	viaDomain, viaQueries := New(), New()
	dCalls, qCalls := recordFaults(viaDomain, fire), recordFaults(viaQueries, fire)
	d := domainOf(viaDomain, preds)
	g := d.Goal(goal)
	faulted := 0
	for _, cube := range domainCubes(len(preds)) {
		f := cubeConj(preds, cube)
		if got, want := d.Valid(cube, g), viaQueries.Valid(f, goal); got != want {
			t.Errorf("Valid(%s => %s) = %v, want %v", f, goal, got, want)
		}
		if got, want := d.Unsat(cube, nil), viaQueries.Unsat(f); got != want {
			t.Errorf("Unsat(%s) = %v, want %v", f, got, want)
		}
	}
	if len(*dCalls) != len(*qCalls) {
		t.Fatalf("Fault asked %d times via the domain, %d via queries", len(*dCalls), len(*qCalls))
	}
	for i, c := range *dCalls {
		if c != (*qCalls)[i] {
			t.Fatalf("Fault call %d: domain %q, queries %q", i, c, (*qCalls)[i])
		}
		if fire(c.kind, []byte(c.key)) {
			faulted++
		}
	}
	if faulted == 0 || faulted == len(*dCalls) {
		t.Fatalf("%d of %d checks faulted: the schedule tests nothing", faulted, len(*dCalls))
	}
	got, want := viaDomain.Stats(), viaQueries.Stats()
	got.SolverTime, want.SolverTime = 0, 0
	if got != want {
		t.Errorf("domain counters %+v, queries %+v", got, want)
	}
}
