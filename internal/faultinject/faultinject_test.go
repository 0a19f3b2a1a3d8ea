package faultinject

import (
	"context"
	"testing"
	"time"

	"predabs/internal/abstract"
	"predabs/internal/corpus"
	"predabs/internal/form"
	"predabs/internal/prover"
	"predabs/internal/slam"
)

// Injected reports how many faults of each kind fired.
func (p *Prover) Injected() map[string]int64 {
	return map[string]int64{
		KindTimeout: p.injTimeout.Load(),
		KindUnknown: p.injUnknown.Load(),
		KindFailure: p.injFailure.Load(),
		KindLatency: p.injLatency.Load(),
		KindPanic:   p.injPanic.Load(),
	}
}

// InjectedTotal sums the degrading faults (timeout+unknown+failure).
func (p *Prover) InjectedTotal() int64 {
	return p.injTimeout.Load() + p.injUnknown.Load() + p.injFailure.Load()
}

func eq(name string, v int64) form.Formula {
	return form.Cmp{Op: form.Eq, X: form.Var{Name: name}, Y: form.Num{V: v}}
}

// queries issues a fixed mix of valid/unsat queries and returns the
// answer vector.
func queries(p *Prover) []bool {
	var out []bool
	for i := int64(0); i < 40; i++ {
		out = append(out, p.Valid(eq("x", i), eq("x", i)))
		out = append(out, p.Unsat(form.MkAnd(eq("y", i), eq("y", i+1))))
	}
	return out
}

func TestScheduleDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, TimeoutRate: 0.3, UnknownRate: 0.1, FailureRate: 0.1}
	a := queries(New(prover.New(), cfg))
	b := queries(New(prover.New(), cfg))
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d: run A answered %v, run B %v — schedule not deterministic", i, a[i], b[i])
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	pa := New(prover.New(), Config{Seed: 1, TimeoutRate: 0.5})
	pb := New(prover.New(), Config{Seed: 2, TimeoutRate: 0.5})
	qa, qb := queries(pa), queries(pb)
	if pa.InjectedTotal() == 0 || pb.InjectedTotal() == 0 {
		t.Fatalf("rate 0.5 injected nothing: %d / %d", pa.InjectedTotal(), pb.InjectedTotal())
	}
	same := true
	for i := range qa {
		if qa[i] != qb[i] {
			same = false
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical fault schedules over 80 queries")
	}
}

func TestFaultsNeverForceTrue(t *testing.T) {
	// Rate 1: every query degrades to "could not prove" — even trivially
	// valid ones. The wrapper must never strengthen an answer.
	p := New(prover.New(), Config{Seed: 3, TimeoutRate: 1})
	if p.Valid(form.TrueF{}, form.TrueF{}) {
		t.Error("injected timeout still answered valid=true")
	}
	if p.Unsat(form.MkAnd(eq("x", 1), eq("x", 2))) {
		t.Error("injected timeout still answered unsat=true")
	}
	if got := p.Injected()[KindTimeout]; got != 2 {
		t.Errorf("timeout injections = %d, want 2", got)
	}
}

func TestPanicInjection(t *testing.T) {
	p := New(prover.New(), Config{Seed: 4, PanicRate: 1})
	defer func() {
		if recover() == nil {
			t.Error("PanicRate 1 did not panic")
		}
	}()
	p.Valid(form.TrueF{}, form.TrueF{})
}

// A cancelled run must not sit out injected sleeps: with an hour-long
// latency on every query, only context cancellation can let this test
// finish.
func TestLatencyRespectsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := New(prover.New(), Config{Seed: 6, LatencyRate: 1, Latency: time.Hour, Ctx: ctx})
	done := make(chan bool, 1)
	go func() { done <- p.Valid(form.TrueF{}, form.TrueF{}) }()
	select {
	case v := <-done:
		if !v {
			t.Error("a latency fault must not change the answer")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("latency injection ignored the cancelled context")
	}
	if got := p.Injected()[KindLatency]; got != 1 {
		t.Errorf("latency injections = %d, want 1", got)
	}
}

// TestSlamStatsThroughWrapper runs one driver through slam, under each
// engine, on a bare prover and on the same kind of prover with a
// fault-free schedule installed: the schedule must leave every query to
// the prover, so both runs report the same statistics (solver time
// aside, which is wall clock), sessions included under the models
// engine.
func TestSlamStatsThroughWrapper(t *testing.T) {
	d := corpus.Drivers()[0]
	for _, engine := range []string{abstract.EngineCubes, abstract.EngineModels} {
		run := func(pv prover.Querier) prover.Stats {
			cfg := slam.DefaultConfig()
			cfg.Opts.Engine = engine
			cfg.Prover = pv
			res, err := slam.VerifySpec(d.Source, d.Spec, d.Entry, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := res.Stats
			s.SolverTime = 0
			return s
		}
		bare := run(prover.New())
		wrapped := run(New(prover.New(), Config{}))
		if bare.SearchNodes == 0 || bare.TheoryLeaves == 0 {
			t.Fatalf("%s/%s: bare run did no search: %+v", d.Name, engine, bare)
		}
		if engine == abstract.EngineModels && wrapped.SessionChecks == 0 {
			t.Errorf("%s/%s: no session checks through the wrapper: %+v", d.Name, engine, wrapped)
		}
		if wrapped != bare {
			t.Errorf("%s/%s: stats through the wrapper differ\nwrapped %+v\nbare    %+v", d.Name, engine, wrapped, bare)
		}
	}
}
