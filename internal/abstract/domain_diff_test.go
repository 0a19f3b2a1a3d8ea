package abstract_test

import (
	"testing"

	"predabs"
	"predabs/internal/abstract"
	"predabs/internal/corpus"
	"predabs/internal/form"
	"predabs/internal/prover"
)

// TestCubeChecksMatchQueries is the differential test of the compiled
// literal domain against the per-cube queries it replaced: for every
// F_V and enforce check on the corpus — the Table 2 programs under both
// engines, and every CEGAR iteration of the drivers — the check's cache
// key must be the one Valid(cube, goal) or Unsat(cube) of the cube's
// conjunction uses, and its verdict the one a prover without a cache
// gives that call. That covers every check a counter-model of an
// earlier check answered without a search; there must be some, and
// neither side may give up. Under the cube engine some of them must be
// answered by a model another goal's check found, on Table 2 and on the
// drivers. Under the models engine only the enforce checks reach the
// domain, over a prover whose term table the
// engine's sessions also grow; their only goal is the Unsat goal, so
// every model that answers one is its own.
func TestCubeChecksMatchQueries(t *testing.T) {
	ref := prover.New()
	ref.DisableCache = true
	checks, models, crosses := 0, 0, 0
	var diffs []string
	abstract.CubeCheckHook = func(cube, goal form.Formula, key string, verdict, model, cross bool) {
		var want string
		var v bool
		if goal == nil {
			want, v = "U\x00"+cube.String(), ref.Unsat(cube)
		} else {
			want, v = "V\x00"+cube.String()+"\x00"+goal.String(), ref.Valid(cube, goal)
		}
		checks++
		if model {
			models++
		}
		if cross {
			crosses++
		}
		if len(diffs) >= 20 {
			return
		}
		if key != want {
			diffs = append(diffs, "key "+key+", want "+want)
		}
		if v != verdict {
			diffs = append(diffs, "verdict differs on "+want)
		}
	}
	defer func() { abstract.CubeCheckHook = nil }()

	var gaveUp int
	for _, engine := range []string{predabs.EngineCubes, predabs.EngineModels} {
		before, modelsBefore, crossesBefore := checks, models, crosses
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
			bprog, err := prog.Abstract(p.Preds, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", engine, p.Name, err)
			}
			gaveUp += bprog.Stats().ProverGaveUp
		}
		if checks == before {
			t.Errorf("the %s engine made no cube checks on Table 2", engine)
		}
		if models == modelsBefore {
			t.Errorf("no counter-model answered a check of the %s engine on Table 2", engine)
		}
		if engine == predabs.EngineCubes && crosses == crossesBefore {
			t.Errorf("no other goal's counter-model answered a check of the %s engine on Table 2", engine)
		}
	}
	modelsBefore, crossesBefore := models, crosses
	for _, d := range corpus.Drivers() {
		res, err := predabs.VerifySpec(d.Source, d.Spec, d.Entry, predabs.DefaultVerifyConfig())
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		gaveUp += res.Stats.ProverGaveUp
	}
	if models == modelsBefore {
		t.Error("no counter-model answered a check of the drivers' CEGAR runs")
	}
	if crosses == crossesBefore {
		t.Error("no other goal's counter-model answered a check of the drivers' CEGAR runs")
	}
	for _, d := range diffs {
		t.Error(d)
	}
	if checks == 0 {
		t.Fatal("the corpus made no cube checks")
	}
	if gaveUp != 0 || ref.GaveUp() != 0 {
		t.Errorf("queries gave up: %d on the corpus, %d on the reference", gaveUp, ref.GaveUp())
	}
	t.Logf("%d cube checks match their queries, %d of them answered by a counter-model, %d by another goal's", checks, models, crosses)
}
