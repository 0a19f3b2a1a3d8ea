package predabs

import (
	"fmt"
	"math/rand"
	"testing"

	"predabs/internal/abstract"
	"predabs/internal/corpus"
	"predabs/internal/form"
	"predabs/internal/prover"
)

// TestEnforceSkipsOnlySatisfiableCubes is the differential check of the
// enforce search's connectivity filter against the unfiltered search it
// replaced: every candidate the filter skips — in every enforce round
// on the Table 2 subjects, on every CEGAR iteration of the drivers
// under both engines, and on the TestEngineDifferentialFuzz procedures —
// must be one a fresh prover does not call unsatisfiable, so asking it
// could never have added a disjunct to the invariant.
func TestEnforceSkipsOnlySatisfiableCubes(t *testing.T) {
	var skipped []form.Formula
	abstract.SkippedCubeHook = func(f form.Formula) { skipped = append(skipped, f) }
	defer func() { abstract.SkippedCubeHook = nil }()
	total := 0
	check := func(subject string) {
		t.Helper()
		for _, f := range skipped {
			if prover.New().Unsat(f) {
				t.Errorf("%s: skipped an unsatisfiable enforce cube: %s", subject, f)
			}
		}
		total += len(skipped)
		skipped = skipped[:0]
	}

	engines := []string{EngineCubes, EngineModels}
	for _, p := range corpus.Table2() {
		for _, engine := range engines {
			abstractWith(t, p, engine)
			check(engine + " " + p.Name)
		}
	}
	if !testing.Short() {
		for _, p := range corpus.Drivers() {
			for _, engine := range engines {
				cfg := DefaultVerifyConfig()
				cfg.Opts.Engine = engine
				if _, err := VerifySpec(p.Source, p.Spec, p.Entry, cfg); err != nil {
					t.Fatal(err)
				}
				check(engine + " " + p.Name)
			}
		}
	}
	for seed := 0; seed < 60; seed++ {
		src, preds := genProc(rand.New(rand.NewSource(int64(seed))))
		prog, err := Load(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, engine := range engines {
			opts := DefaultOptions()
			opts.Engine = engine
			if _, err := prog.Abstract(preds, opts); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			check(fmt.Sprintf("%s fuzz seed %d", engine, seed))
		}
	}
	if total == 0 {
		t.Fatal("the filter skipped no candidate: the check is vacuous")
	}
	t.Logf("%d skipped candidates re-asked, none unsatisfiable", total)
}
