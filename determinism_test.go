package predabs

import (
	"testing"

	"predabs/internal/corpus"
)

// TestParallelAbstractionDeterminism asserts that the boolean-program
// output of C2bp is byte-identical whether the cube search runs on one
// worker or eight: the parallel rounds merge their prover verdicts in
// canonical enumeration order, so scheduling must never leak into the
// output. The checks answered by counter-models, and the goal
// evaluations that pool them, must not depend on the worker count
// either: a round's models join the domain's store only at its end, in
// candidate order. Runs over the whole Table 2 golden corpus under both engines;
// the models engine's enforce search runs on the same worker pool.
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
					texts, answers, evals := map[int]string{}, map[int]int{}, map[int]int{}
					for _, jobs := range []int{1, 8} {
						prog, err := load(p.Source)
						if err != nil {
							t.Fatal(err)
						}
						opts := DefaultOptions()
						opts.Engine = engine
						opts.Jobs = jobs
						bprog, err := prog.Abstract(p.Preds, opts)
						if err != nil {
							t.Fatal(err)
						}
						texts[jobs] = bprog.Text()
						answers[jobs] = bprog.Stats().ModelAnswers
						evals[jobs] = bprog.Stats().ModelEvals
					}
					if texts[1] != texts[8] {
						t.Errorf("%s: -j 1 and -j 8 outputs differ:\n--- j=1 ---\n%s\n--- j=8 ---\n%s",
							p.Name, texts[1], texts[8])
					}
					if answers[1] != answers[8] {
						t.Errorf("%s: model answers differ: -j 1 %d, -j 8 %d", p.Name, answers[1], answers[8])
					}
					if evals[1] != evals[8] {
						t.Errorf("%s: model evaluations differ: -j 1 %d, -j 8 %d", p.Name, evals[1], evals[8])
					}
					if answers[1] == 0 {
						t.Errorf("%s: no check was answered by a counter-model", p.Name)
					}
				})
			}
		})
	}
}

// TestParallelAbstractionStatsDeterminism pins the deterministic subset
// of the statistics: the cube candidates submitted to the prover must
// not depend on the worker count (prover cache hits may, since workers
// race on first computation of a shared query).
func TestParallelAbstractionStatsDeterminism(t *testing.T) {
	p, _ := corpus.ByName("partition")
	checked := map[int]int{}
	for _, jobs := range []int{1, 8} {
		prog, err := Load(p.Source)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Jobs = jobs
		bprog, err := prog.Abstract(p.Preds, opts)
		if err != nil {
			t.Fatal(err)
		}
		checked[jobs] = bprog.Stats().CubesChecked
	}
	if checked[1] != checked[8] {
		t.Errorf("CubesChecked differs: j=1 %d, j=8 %d", checked[1], checked[8])
	}
}
