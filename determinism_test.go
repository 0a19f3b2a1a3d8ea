package predabs

import (
	"testing"

	"predabs/internal/corpus"
)

// TestParallelAbstractionDeterminism asserts that two runs of C2bp over
// the same input agree byte for byte on the boolean program, and on the
// prover's work behind it: the checks answered by counter-models, the
// goal evaluations that pool them, the cache hits and the search effort
// (DPLL nodes and theory leaves). A round's models join the domain's
// store only at its end, in candidate order, so nothing a check sees
// depends on anything but its input. Runs over the whole Table 2 golden
// corpus under both engines.
func TestParallelAbstractionDeterminism(t *testing.T) {
	for _, p := range corpus.Table2() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			load := Load
			if p.GhostAliasing {
				load = LoadGhostAliasing
			}
			for _, engine := range []string{EngineCubes, EngineModels} {
				t.Run(engine, func(t *testing.T) {
					var texts [2]string
					var stats [2]AbstractStats
					for run := range texts {
						prog, err := load(p.Source)
						if err != nil {
							t.Fatal(err)
						}
						opts := DefaultOptions()
						opts.Engine = engine
						bprog, err := prog.Abstract(p.Preds, opts)
						if err != nil {
							t.Fatal(err)
						}
						texts[run], stats[run] = bprog.Text(), bprog.Stats()
					}
					if texts[0] != texts[1] {
						t.Errorf("%s: outputs of two runs differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
							p.Name, texts[0], texts[1])
					}
					for _, c := range []struct {
						name string
						a, b int
					}{
						{"model answers", stats[0].ModelAnswers, stats[1].ModelAnswers},
						{"model evaluations", stats[0].ModelEvals, stats[1].ModelEvals},
						{"cache hits", stats[0].CacheHits, stats[1].CacheHits},
						{"search nodes", stats[0].SearchNodes, stats[1].SearchNodes},
						{"theory leaves", stats[0].TheoryLeaves, stats[1].TheoryLeaves},
					} {
						if c.a != c.b {
							t.Errorf("%s: %s differ: run 1 %d, run 2 %d", p.Name, c.name, c.a, c.b)
						}
					}
					if stats[0].ModelAnswers == 0 {
						t.Errorf("%s: no check was answered by a counter-model", p.Name)
					}
				})
			}
		})
	}
}

// TestParallelAbstractionStatsDeterminism pins every count of the
// statistics across two runs: the cube candidates submitted to the
// prover, the cube rounds, and every prover counter. Only the wall
// times may differ.
func TestParallelAbstractionStatsDeterminism(t *testing.T) {
	p, _ := corpus.ByName("partition")
	var runs [2]AbstractStats
	for run := range runs {
		prog, err := Load(p.Source)
		if err != nil {
			t.Fatal(err)
		}
		bprog, err := prog.Abstract(p.Preds, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		runs[run] = bprog.Stats()
	}
	a, b := runs[0].Stats, runs[1].Stats
	a.SolverTime, b.SolverTime = 0, 0
	if a != b {
		t.Errorf("prover counters differ:\nrun 1 %+v\nrun 2 %+v", a, b)
	}
	if runs[0].CubesChecked != runs[1].CubesChecked || runs[0].CubeRounds != runs[1].CubeRounds {
		t.Errorf("cube search differs: run 1 %d cubes in %d rounds, run 2 %d in %d",
			runs[0].CubesChecked, runs[0].CubeRounds, runs[1].CubesChecked, runs[1].CubeRounds)
	}
}
