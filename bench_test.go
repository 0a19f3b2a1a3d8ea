package predabs

// Benchmark harness regenerating every table and figure of the paper's
// evaluation (Section 6). Each benchmark prints the paper's row format
// ("program  lines  predicates  thm-prover-calls  runtime") through the
// standard metrics: predicates/op, proverCalls/op and ns/op; EXPERIMENTS.md
// records the paper-vs-measured comparison.
//
// Run with: go test -bench=. -benchmem

import (
	"fmt"
	"testing"

	"predabs/internal/abstract"
	"predabs/internal/alias"
	"predabs/internal/cnorm"
	"predabs/internal/corpus"
	"predabs/internal/cparse"
	"predabs/internal/ctype"
	"predabs/internal/form"
	"predabs/internal/prover"
	"predabs/internal/slam"
)

// abstractOnce runs the frontend and C2bp on one corpus program,
// returning (#predicates, prover calls).
func abstractOnce(b *testing.B, p corpus.Program, opts abstract.Options) (int, int) {
	b.Helper()
	prog, err := cparse.Parse(p.Source)
	if err != nil {
		b.Fatal(err)
	}
	info, err := ctype.Check(prog)
	if err != nil {
		b.Fatal(err)
	}
	res, err := cnorm.Normalize(info)
	if err != nil {
		b.Fatal(err)
	}
	aa := alias.AnalyzeOpts(res, alias.Options{OpenCallers: !p.GhostAliasing})
	pv := prover.New()
	secs, err := cparse.ParsePredFile(p.Preds)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := abstract.Abstract(res, aa, pv, secs, opts); err != nil {
		b.Fatal(err)
	}
	n := 0
	for _, s := range secs {
		n += len(s.Exprs)
	}
	return n, pv.Calls()
}

// BenchmarkTable1 reproduces Table 1: the device drivers run through the
// SLAM toolkit (C2bp dominating the cost), checking the locking and IRP
// disciplines. The paper's columns are lines, predicates, theorem prover
// calls and runtime; the SLAM loop discovers the predicates itself.
func BenchmarkTable1(b *testing.B) {
	for _, p := range corpus.Drivers() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			var preds, calls, iters int
			var outcome slam.Outcome
			for i := 0; i < b.N; i++ {
				cfg := slam.DefaultConfig()
				cfg.MaxIterations = 30
				res, err := slam.VerifySpec(p.Source, p.Spec, p.Entry, cfg)
				if err != nil {
					b.Fatal(err)
				}
				preds, calls, iters = res.PredCount, res.ProverCalls, res.Iterations
				outcome = res.Outcome
			}
			want := slam.Verified
			if p.ExpectError {
				want = slam.ErrorFound
			}
			if outcome != want {
				b.Fatalf("%s: outcome %s, want %s", p.Name, outcome, want)
			}
			b.ReportMetric(float64(p.Lines()), "lines")
			b.ReportMetric(float64(preds), "predicates")
			b.ReportMetric(float64(calls), "proverCalls")
			b.ReportMetric(float64(iters), "cegarIters")
			if b.N == 1 {
				fmt.Printf("  [table1] %-10s lines=%-4d predicates=%-3d prover-calls=%-6d outcome=%s\n",
					p.Name, p.Lines(), preds, calls, outcome)
			}
		})
	}
}

// BenchmarkTable2 reproduces Table 2: the array- and heap-intensive
// programs run through C2bp with the paper-style predicate input files.
// The shape to check against the paper: reverse is the expensive subject
// (every pair of node pointers may alias), the others stay cheap thanks
// to the cone-of-influence heuristics.
func BenchmarkTable2(b *testing.B) {
	for _, p := range corpus.Table2() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			var preds, calls int
			for i := 0; i < b.N; i++ {
				preds, calls = abstractOnce(b, p, abstract.DefaultOptions())
			}
			b.ReportMetric(float64(p.Lines()), "lines")
			b.ReportMetric(float64(preds), "predicates")
			b.ReportMetric(float64(calls), "proverCalls")
			if b.N == 1 {
				fmt.Printf("  [table2] %-10s lines=%-4d predicates=%-3d prover-calls=%-6d\n",
					p.Name, p.Lines(), preds, calls)
			}
		})
	}
}

// BenchmarkFigure1_Partition regenerates Figure 1(b): the boolean program
// of the list partition example, plus the Section 2.2 Bebop invariant at
// label L.
func BenchmarkFigure1_Partition(b *testing.B) {
	p, _ := corpus.ByName("partition")
	for i := 0; i < b.N; i++ {
		prog, err := Load(p.Source)
		if err != nil {
			b.Fatal(err)
		}
		bprog, err := prog.Abstract(p.Preds, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		res, err := bprog.Check("partition")
		if err != nil {
			b.Fatal(err)
		}
		inv, err := res.InvariantAt("partition", "L")
		if err != nil {
			b.Fatal(err)
		}
		if inv == "false" {
			b.Fatal("L unreachable")
		}
	}
}

// fooBarSrc is the paper's Figure 2 input.
const fooBarSrc = `
int bar(int* q, int y) {
  int l1, l2;
  l1 = y;
  l2 = y - 1;
  if (*q <= y) { l1 = *q; }
  return l1;
}

void foo(int* p, int x) {
  int r;
  if (*p <= x) {
    *p = x;
  } else {
    *p = *p + x;
  }
  r = bar(p, x);
}
`

const fooBarPreds = `
bar:
  y >= 0, *q <= y, y == l1, y > l2
foo:
  *p <= 0, x == 0, r == 0
`

// BenchmarkFigure2_FooBar regenerates Figure 2's interprocedural
// abstraction: signatures E_f/E_r for bar and the call translation in foo.
func BenchmarkFigure2_FooBar(b *testing.B) {
	var calls int
	for i := 0; i < b.N; i++ {
		prog, err := Load(fooBarSrc)
		if err != nil {
			b.Fatal(err)
		}
		bprog, err := prog.Abstract(fooBarPreds, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		calls = bprog.Stats().ProverCalls
	}
	b.ReportMetric(float64(calls), "proverCalls")
}

// BenchmarkFigure3_Mark regenerates the Figure 3 experiment: abstract the
// mark (reverse) procedure with the seven paper predicates and verify the
// heap-shape preservation h->next == hnext with Bebop.
func BenchmarkFigure3_Mark(b *testing.B) {
	p, _ := corpus.ByName("reverse")
	var calls int
	for i := 0; i < b.N; i++ {
		prog, err := LoadGhostAliasing(p.Source)
		if err != nil {
			b.Fatal(err)
		}
		bprog, err := prog.Abstract(p.Preds, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		res, err := bprog.Check("mark")
		if err != nil {
			b.Fatal(err)
		}
		if _, _, bad := res.ErrorReachable(); bad {
			b.Fatal("shape property violated")
		}
		calls = bprog.Stats().ProverCalls
	}
	b.ReportMetric(float64(calls), "proverCalls")
}

// --- Ablations for the Section 5.2 design choices ---

func ablationRun(b *testing.B, name string, opts abstract.Options) {
	p, _ := corpus.ByName(name)
	var calls int
	for i := 0; i < b.N; i++ {
		_, calls = abstractOnce(b, p, opts)
	}
	b.ReportMetric(float64(calls), "proverCalls")
}

// BenchmarkAblationCubeLength sweeps the max cube length k: the paper
// reports k=3 provides the needed precision; larger k costs more prover
// calls for no gain on these subjects.
func BenchmarkAblationCubeLength(b *testing.B) {
	for _, k := range []int{1, 2, 3, 0} {
		k := k
		name := fmt.Sprintf("k=%d", k)
		if k == 0 {
			name = "k=unlimited"
		}
		b.Run(name, func(b *testing.B) {
			opts := abstract.DefaultOptions()
			opts.MaxCubeLen = k
			ablationRun(b, "partition", opts)
		})
	}
}

// BenchmarkAblationCone toggles the cone-of-influence optimization on the
// reverse example — the subject where the paper notes the heuristics
// could not avoid the exponential blowup, and on kmp where they help.
func BenchmarkAblationCone(b *testing.B) {
	for _, sub := range []string{"kmp", "partition"} {
		for _, on := range []bool{true, false} {
			sub, on := sub, on
			name := fmt.Sprintf("%s/cone=%v", sub, on)
			b.Run(name, func(b *testing.B) {
				opts := abstract.DefaultOptions()
				opts.ConeOfInfluence = on
				ablationRun(b, sub, opts)
			})
		}
	}
}

// BenchmarkAblationCache toggles prover result caching (optimization 5).
func BenchmarkAblationCache(b *testing.B) {
	p, _ := corpus.ByName("partition")
	for _, on := range []bool{true, false} {
		on := on
		b.Run(fmt.Sprintf("cache=%v", on), func(b *testing.B) {
			var hits int
			for i := 0; i < b.N; i++ {
				prog, err := cparse.Parse(p.Source)
				if err != nil {
					b.Fatal(err)
				}
				info, _ := ctype.Check(prog)
				res, _ := cnorm.Normalize(info)
				aa := alias.Analyze(res)
				pv := prover.New()
				pv.DisableCache = !on
				secs, _ := cparse.ParsePredFile(p.Preds)
				if _, err := abstract.Abstract(res, aa, pv, secs, abstract.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
				hits = pv.CacheHits()
			}
			b.ReportMetric(float64(hits), "cacheHits")
		})
	}
}

// BenchmarkAblationHeuristics toggles the syntactic-match heuristics
// (optimization 4) and the skip-unchanged optimization (optimization 2).
func BenchmarkAblationHeuristics(b *testing.B) {
	configs := []struct {
		name string
		mod  func(*abstract.Options)
	}{
		{"all-on", func(o *abstract.Options) {}},
		{"no-syntactic", func(o *abstract.Options) { o.SyntacticHeuristics = false }},
		{"no-skip-unchanged", func(o *abstract.Options) { o.SkipUnchanged = false }},
		{"f-on-atoms", func(o *abstract.Options) { o.FOnAtoms = true }},
		{"no-enforce", func(o *abstract.Options) { o.EmitEnforce = false }},
	}
	for _, c := range configs {
		c := c
		b.Run(c.name, func(b *testing.B) {
			opts := abstract.DefaultOptions()
			c.mod(&opts)
			ablationRun(b, "partition", opts)
		})
	}
}

// BenchmarkBebopOnly isolates the model checker: the paper reports "Bebop
// ran in under 10 seconds on the boolean program output by C2bp" for all
// subjects; here it is milliseconds.
func BenchmarkBebopOnly(b *testing.B) {
	p, _ := corpus.ByName("reverse")
	prog, err := LoadGhostAliasing(p.Source)
	if err != nil {
		b.Fatal(err)
	}
	bprog, err := prog.Abstract(p.Preds, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	parsed, err := ParseBooleanProgram(bprog.Text())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := parsed.Check("mark")
		if err != nil {
			b.Fatal(err)
		}
		if _, _, bad := res.ErrorReachable(); bad {
			b.Fatal("unexpected violation")
		}
	}
}

// BenchmarkProver isolates the decision procedures on representative
// C2bp-style queries.
func BenchmarkProver(b *testing.B) {
	queries := []struct{ hyp, goal string }{
		{"x == 2", "x < 4"},
		{"curr != NULL && curr->val > v && (prev->val <= v || prev == NULL)", "prev != curr"},
		{"p == &x && *p == 3", "x == 3"},
		{"i <= j && j <= i && a[i] == 1", "a[j] == 1"},
	}
	for i := 0; i < b.N; i++ {
		pv := prover.New()
		pv.DisableCache = true
		for _, q := range queries {
			he, err := cparse.ParseExpr(q.hyp)
			if err != nil {
				b.Fatal(err)
			}
			ge, err := cparse.ParseExpr(q.goal)
			if err != nil {
				b.Fatal(err)
			}
			hf, err := form.FromCond(he)
			if err != nil {
				b.Fatal(err)
			}
			gf, err := form.FromCond(ge)
			if err != nil {
				b.Fatal(err)
			}
			if !pv.Valid(hf, gf) {
				b.Fatalf("query (%s) => (%s) should be valid", q.hyp, q.goal)
			}
		}
	}
}

// BenchmarkEndToEndSLAM measures one full CEGAR verification of the
// correlated-branch locking example from scratch.
func BenchmarkEndToEndSLAM(b *testing.B) {
	src := `
void AcquireLock(void) { }
void ReleaseLock(void) { }

void main(int x) {
  if (x == 0) {
    AcquireLock();
  }
  if (x == 0) {
    ReleaseLock();
  }
}
`
	specSrc := `
state { int locked = 0; }
event AcquireLock entry { if (locked == 1) { abort; } locked = 1; }
event ReleaseLock entry { if (locked == 0) { abort; } locked = 0; }
`
	for i := 0; i < b.N; i++ {
		res, err := VerifySpec(src, specSrc, "main", DefaultVerifyConfig())
		if err != nil {
			b.Fatal(err)
		}
		if res.Outcome != Verified {
			b.Fatalf("outcome %s", res.Outcome)
		}
	}
}
