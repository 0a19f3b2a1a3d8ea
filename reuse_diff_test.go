package predabs

import (
	"testing"

	"predabs/internal/abstract"
	"predabs/internal/bp"
	"predabs/internal/corpus"
)

// TestReusedResultsMatchFreshSearch is the differential check of the
// abstraction's scope records: every F_V result and enforce invariant
// served from a record instead of searched — on the Table 2 subjects,
// the Figure 2 example and every CEGAR iteration of the drivers, under
// both engines — must print exactly as the same search run afresh on a
// new Abstractor and prover.
func TestReusedResultsMatchFreshSearch(t *testing.T) {
	served := map[string]int{}
	var subject string
	abstract.ReuseHook = func(kind string, e bp.Expr, recompute func() bp.Expr) {
		served[kind]++
		if got, want := exprText(e), exprText(recompute()); got != want {
			t.Errorf("%s: reused %s result %s, fresh search gives %s", subject, kind, got, want)
		}
	}
	defer func() { abstract.ReuseHook = nil }()

	for _, engine := range []string{EngineCubes, EngineModels} {
		for _, p := range corpus.Table2() {
			subject = engine + " " + p.Name
			abstractWith(t, p, engine)
		}
		subject = engine + " figure2"
		prog, err := Load(fooBarSrc)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Engine = engine
		if _, err := prog.Abstract(fooBarPreds, opts); err != nil {
			t.Fatal(err)
		}
		if testing.Short() {
			continue
		}
		for _, p := range corpus.Drivers() {
			subject = engine + " " + p.Name
			cfg := DefaultVerifyConfig()
			cfg.Opts.Engine = engine
			if _, err := VerifySpec(p.Source, p.Spec, p.Entry, cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	if served["fv"] == 0 || (!testing.Short() && served["enforce"] == 0) {
		t.Errorf("served %d F_V results and %d enforce invariants; want some of each", served["fv"], served["enforce"])
	}
	t.Logf("served %d F_V results and %d enforce invariants", served["fv"], served["enforce"])
}

// exprText prints e, or "none" for an absent enforce invariant.
func exprText(e bp.Expr) string {
	if e == nil {
		return "none"
	}
	return e.String()
}
