//go:build !race

// The corpus replay costs what the reference solver costs (about half a
// minute); under the race detector it would take minutes and exercise no
// concurrency the prover's own stress tests do not.

package prover_test

import (
	"testing"

	"predabs"
	"predabs/internal/corpus"
	"predabs/internal/prover"
)

// TestCorpusQueriesMatchOracle replays every search the corpus triggers —
// each uncached Valid and Unsat and each Session.Check, under both
// abstraction engines, on the Table 2 programs and the five drivers —
// through the reference solver: same verdict, same node and leaf counts,
// and for a session check the same values of its tracked formulas.
func TestCorpusQueriesMatchOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the whole corpus through the reference solver")
	}
	for _, engine := range []string{predabs.EngineCubes, predabs.EngineModels} {
		t.Run(engine, func(t *testing.T) {
			stop := prover.ReplayAgainstOracle()
			for _, p := range corpus.Table2() {
				load := predabs.Load
				if p.GhostAliasing {
					load = predabs.LoadGhostAliasing
				}
				prog, err := load(p.Source)
				if err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
				opts := predabs.DefaultOptions()
				opts.Engine = engine
				if _, err := prog.Abstract(p.Preds, opts); err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
			}
			for _, d := range corpus.Drivers() {
				cfg := predabs.DefaultVerifyConfig()
				cfg.Opts.Engine = engine
				if _, err := predabs.VerifySpec(d.Source, d.Spec, d.Entry, cfg); err != nil {
					t.Fatalf("%s: %v", d.Name, err)
				}
			}
			n, diffs := stop()
			for _, d := range diffs {
				t.Error(d)
			}
			t.Logf("%d searches agree with the reference solver", n)
		})
	}
}
