package abstract_test

import (
	"sync"
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
// gives that call. Under the models engine only the enforce checks reach
// the domain, on the worker pool, over a prover whose term table the
// engine's sessions also grow.
func TestCubeChecksMatchQueries(t *testing.T) {
	ref := prover.New()
	ref.DisableCache = true
	var mu sync.Mutex
	checks := 0
	var diffs []string
	abstract.CubeCheckHook = func(cube, goal form.Formula, key string, verdict bool) {
		var want string
		var v bool
		if goal == nil {
			want, v = "U\x00"+cube.String(), ref.Unsat(cube)
		} else {
			want, v = "V\x00"+cube.String()+"\x00"+goal.String(), ref.Valid(cube, goal)
		}
		mu.Lock()
		defer mu.Unlock()
		checks++
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

	for _, engine := range []string{predabs.EngineCubes, predabs.EngineModels} {
		before := checks
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
				t.Fatalf("%s %s: %v", engine, p.Name, err)
			}
		}
		if checks == before {
			t.Errorf("the %s engine made no cube checks on Table 2", engine)
		}
	}
	for _, d := range corpus.Drivers() {
		if _, err := predabs.VerifySpec(d.Source, d.Spec, d.Entry, predabs.DefaultVerifyConfig()); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
	}
	for _, d := range diffs {
		t.Error(d)
	}
	if checks == 0 {
		t.Fatal("the corpus made no cube checks")
	}
	t.Logf("%d cube checks match their queries", checks)
}
