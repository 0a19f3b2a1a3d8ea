package abstract

import (
	"testing"

	"predabs/internal/bp"
	"predabs/internal/prover"
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

// TestEnginesJobsInvariance pins both engines' determinism: two runs
// over the same input must agree on every byte of output, and on the
// prover's work behind it. Counter-models join the domain's store only
// at a round's end, in candidate order, so the checks they answer, the
// goal evaluations made to pool them, the cache hits and the search
// effort all repeat exactly.
func TestEnginesJobsInvariance(t *testing.T) {
	for _, engine := range []string{EngineCubes, EngineModels} {
		var outs [2]string
		var stats [2]prover.Stats
		for run := range outs {
			opts := DefaultOptions()
			opts.Engine = engine
			res, pv := pipeline(t, partitionSrc, partitionPreds, opts)
			outs[run], stats[run] = bp.Print(res.BP), pv.Stats()
			stats[run].SolverTime = 0
		}
		if outs[0] != outs[1] {
			t.Fatalf("two runs of the %s engine differ", engine)
		}
		if stats[0] != stats[1] {
			t.Errorf("%s engine: prover counters differ:\nrun 1 %+v\nrun 2 %+v", engine, stats[0], stats[1])
		}
		if stats[0].ModelAnswers == 0 {
			t.Errorf("the %s engine made no model answers on partition", engine)
		}
	}
}
