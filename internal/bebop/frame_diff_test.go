package bebop_test

import (
	"fmt"
	"math/rand"
	"testing"

	"predabs"
	"predabs/internal/bebop"
	"predabs/internal/bp"
	"predabs/internal/corpus"
	"predabs/internal/slam"
)

// TestAssignImageMatchesFrameOracle checks Bebop's frame-free assignment
// image against the frame-condition relation it replaced, on every
// assignment the fixpoint reaches: in each Table 2 abstraction, in the
// program of each CEGAR iteration of the Table 1 drivers, in the seeds
// of randomProgram and in this package's unit-test programs. Both must
// give the same node of the same manager.
func TestAssignImageMatchesFrameOracle(t *testing.T) {
	check := func(name string, prog *bp.Program, entry string) int {
		t.Helper()
		c, err := bebop.Check(prog, entry)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n, err := c.AssignImagesMatchFrameOracle()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return n
	}
	corpusAssigns := 0
	for _, p := range corpus.Table2() {
		load := predabs.Load
		if p.GhostAliasing {
			load = predabs.LoadGhostAliasing
		}
		prog, err := load(p.Source)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		abs, err := prog.Abstract(p.Preds, predabs.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		corpusAssigns += check(p.Name, bp.MustParse(abs.Text()), p.Entry)
	}
	for _, p := range corpus.Drivers() {
		for k := 1; ; k++ {
			cfg := slam.DefaultConfig()
			cfg.MaxIterations = k
			res, err := slam.VerifySpec(p.Source, p.Spec, p.Entry, cfg)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			corpusAssigns += check(fmt.Sprintf("driver %s iteration %d", p.Name, k), res.FinalBP, p.Entry)
			if res.Iterations < k || res.Outcome != slam.Unknown {
				break
			}
		}
	}
	if corpusAssigns == 0 {
		t.Fatal("no corpus assignment was reached")
	}
	for seed := int64(0); seed < 300; seed++ {
		src := bebop.RandomProgram(rand.New(rand.NewSource(seed)))
		check(fmt.Sprintf("random seed %d", seed), bp.MustParse(src), "main")
	}
	for _, file := range []string{"bebop_test.go", "bebop_extra_test.go", "trace_test.go", "shadow_test.go"} {
		for i, src := range testPrograms(t, file) {
			check(fmt.Sprintf("%s program %d", file, i), bp.MustParse(src), "main")
		}
	}
	t.Logf("%d corpus assignments compared", corpusAssigns)
}
