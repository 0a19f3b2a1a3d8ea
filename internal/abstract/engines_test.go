package abstract

import (
	"testing"

	"predabs/internal/bp"
)

// engineCases are small program/predicate pairs exercised by the
// cross-engine differential tests. The root package runs the full paper
// corpus through both engines; these stay cheap and debuggable.
var engineCases = []struct {
	name  string
	src   string
	preds string
}{
	{"partition", partitionSrc, partitionPreds},
	{"branches", `
int sign(int x) {
  int s;
  if (x > 0) { s = 1; } else { if (x < 0) { s = -1; } else { s = 0; } }
  return s;
}`, `
sign:
  x > 0, x < 0, s == 0, s == 1
`},
	{"loop", `
int count(int n) {
  int i;
  i = 0;
  while (i < n) {
    i = i + 1;
  }
  return i;
}`, `
count:
  i < n, i == 0, n > 0
`},
	{"globals", `
int g;
void set(int v) {
  if (v > 3) { g = v; } else { g = 0; }
}`, `
global:
  g == 0, g > 3
set:
  v > 3, v == g
`},
}

// TestEnginesByteIdentical is the in-package differential oracle: both
// engines must emit byte-identical boolean programs, and the model
// engine must never issue more prover interactions (Valid/Unsat calls
// plus session checks) than the cube engine.
func TestEnginesByteIdentical(t *testing.T) {
	for _, tc := range engineCases {
		t.Run(tc.name, func(t *testing.T) {
			cubeOpts := DefaultOptions()
			cubeOpts.Engine = EngineCubes
			cubeRes, cubePv := pipeline(t, tc.src, tc.preds, cubeOpts)
			cubeText := bp.Print(cubeRes.BP)
			cubeQ := cubePv.Calls() + cubePv.SessionChecks()

			modelOpts := DefaultOptions()
			modelOpts.Engine = EngineModels
			modelRes, modelPv := pipeline(t, tc.src, tc.preds, modelOpts)
			modelText := bp.Print(modelRes.BP)
			modelQ := modelPv.Calls() + modelPv.SessionChecks()

			if cubeText != modelText {
				t.Errorf("boolean programs differ\n--- cubes ---\n%s\n--- models ---\n%s",
					cubeText, modelText)
			}
			if cubePv.SessionChecks() != 0 {
				t.Errorf("cube engine opened sessions: %d checks", cubePv.SessionChecks())
			}
			// Cases whose every F_V call resolves syntactically never open a
			// session; where the cube engine paid search queries, the model
			// engine must actually have enumerated.
			if modelPv.Sessions() == 0 && modelQ != cubeQ {
				t.Error("model engine never opened a session yet query counts differ")
			}
			if tc.name == "partition" && modelPv.Sessions() == 0 {
				t.Error("partition must exercise the enumeration engine")
			}
			if modelQ > cubeQ {
				t.Errorf("model engine issued more queries: %d > %d", modelQ, cubeQ)
			}
			t.Logf("queries: cubes=%d models=%d (sessions=%d models-extracted=%d blocked=%d)",
				cubeQ, modelQ, modelPv.Sessions(), modelPv.ModelsExtracted(), modelPv.BlockingClauses())

			// The round/candidate structure must replay identically too.
			if cubeRes.Stats.CubesChecked != modelRes.Stats.CubesChecked ||
				cubeRes.Stats.CubeRounds != modelRes.Stats.CubeRounds {
				t.Errorf("round structure differs: cubes %d/%d, models %d/%d",
					cubeRes.Stats.CubeRounds, cubeRes.Stats.CubesChecked,
					modelRes.Stats.CubeRounds, modelRes.Stats.CubesChecked)
			}
		})
	}
}

// TestEnginesJobsInvariance pins both engines' determinism across
// worker counts: the enumeration loop is sequential and the cube rounds
// merge their worker-pool verdicts in canonical order, so -j must not
// change a byte of output. Counter-models join the domain's store only
// at a round's end, in candidate order, so neither the checks they
// answer nor the goal evaluations made to pool them may change either.
func TestEnginesJobsInvariance(t *testing.T) {
	for _, engine := range []string{EngineCubes, EngineModels} {
		var want string
		answers, evals := -1, -1
		for _, jobs := range []int{1, 4, 8} {
			opts := DefaultOptions()
			opts.Engine = engine
			opts.Jobs = jobs
			res, pv := pipeline(t, partitionSrc, partitionPreds, opts)
			got := bp.Print(res.BP)
			if want == "" {
				want, answers, evals = got, pv.ModelAnswers(), pv.ModelEvals()
				continue
			}
			if got != want {
				t.Fatalf("jobs=%d changed the %s engine's output", jobs, engine)
			}
			if pv.ModelAnswers() != answers {
				t.Errorf("%s engine: jobs=%d made %d model answers, jobs=1 %d", engine, jobs, pv.ModelAnswers(), answers)
			}
			if pv.ModelEvals() != evals {
				t.Errorf("%s engine: jobs=%d made %d model evaluations, jobs=1 %d", engine, jobs, pv.ModelEvals(), evals)
			}
		}
		if answers == 0 {
			t.Errorf("the %s engine made no model answers on partition", engine)
		}
	}
}
