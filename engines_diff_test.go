package predabs

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"predabs/internal/bp"
	"predabs/internal/corpus"
	"predabs/internal/prover"
)

// abstractWith runs one corpus subject's abstraction under the given
// engine and returns the boolean program plus its stats.
func abstractWith(t *testing.T, p corpus.Program, engine string) *BooleanProgram {
	t.Helper()
	load := Load
	if p.GhostAliasing {
		load = LoadGhostAliasing
	}
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
	return bprog
}

// totalQueries is the cross-engine comparison metric: plain Valid/Unsat
// calls plus incremental session checks.
func totalQueries(s AbstractStats) int { return s.ProverCalls + s.SessionChecks }

// corpusGolden pins what every corpus subject produces under both
// engines, one line per engine and subject (see corpusLine). A prover
// rewrite that keeps its search tree keeps the file byte for byte.
const corpusGolden = "testdata/corpus_outputs.golden"

// corpusLine is a subject's line in corpusGolden: the verdict, a SHA-256
// of the verdict, boolean program and error trace, the prover call and
// session-check counts, and the iterations (CEGAR iterations on a
// driver, Bebop iterations on a Table 2 program).
func corpusLine(engine, name, verdict, prog, errTrace string, calls, checks, iterations int) string {
	sum := sha256.Sum256([]byte(verdict + "\n" + prog + "\n" + errTrace))
	return fmt.Sprintf("%s %s verdict=%s sha256=%x calls=%d session_checks=%d iterations=%d\n",
		engine, name, verdict, sum, calls, checks, iterations)
}

// checkCorpusGolden compares the lines a test produced, keyed by
// "engine subject", with theirs in corpusGolden. With UPDATE_GOLDEN set
// it rewrites those lines and keeps the others.
func checkCorpusGolden(t *testing.T, got map[string]string) {
	t.Helper()
	update := os.Getenv("UPDATE_GOLDEN") != ""
	data, err := os.ReadFile(corpusGolden)
	if err != nil && !update {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, l := range strings.SplitAfter(string(data), "\n") {
		if f := strings.Fields(l); len(f) > 2 {
			want[f[0]+" "+f[1]] = l
		}
	}
	if update {
		for k, l := range got {
			want[k] = l
		}
		var b strings.Builder
		for _, engine := range []string{EngineCubes, EngineModels} {
			for _, p := range append(corpus.Table2(), corpus.Drivers()...) {
				b.WriteString(want[engine+" "+p.Name])
			}
		}
		if err := os.WriteFile(corpusGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s changed; regenerate with UPDATE_GOLDEN=1 go test -run %s .\n got: %s want: %s",
				k, t.Name(), got[k], want[k])
		}
	}
}

// table2Line checks a Table 2 abstraction with Bebop and returns its
// corpusGolden line. No query may give up on a resource cap, so that the
// golden's byte identity never rests on a budget cutoff.
func table2Line(t *testing.T, p corpus.Program, engine string, b *BooleanProgram) string {
	t.Helper()
	ch, err := b.Check(p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	verdict := "verified"
	if _, _, bad := ch.ErrorReachable(); bad {
		verdict = "error-found"
	}
	s := b.Stats()
	if s.ProverGaveUp != 0 {
		t.Errorf("%s: %d prover queries gave up", engine, s.ProverGaveUp)
	}
	return corpusLine(engine, p.Name, verdict, b.Text(), "", s.ProverCalls, s.SessionChecks, ch.Stats().Iterations)
}

// TestEngineDifferentialTable2 is the corpus-wide differential oracle
// for the abstraction step: on every Table 2 subject the two engines
// must emit byte-identical boolean programs, and the model engine must
// never issue more prover interactions than the cube engine. Each
// engine's output is also pinned by corpusGolden.
func TestEngineDifferentialTable2(t *testing.T) {
	golden := map[string]string{}
	defer checkCorpusGolden(t, golden)
	for _, p := range corpus.Table2() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			cubes := abstractWith(t, p, EngineCubes)
			models := abstractWith(t, p, EngineModels)
			golden[EngineCubes+" "+p.Name] = table2Line(t, p, EngineCubes, cubes)
			golden[EngineModels+" "+p.Name] = table2Line(t, p, EngineModels, models)
			if cubes.Text() != models.Text() {
				t.Errorf("boolean programs differ\n--- cubes ---\n%s\n--- models ---\n%s",
					cubes.Text(), models.Text())
			}
			if cubes.Degraded() || models.Degraded() {
				t.Fatalf("unexpected degradation (cubes %v, models %v)",
					cubes.Degraded(), models.Degraded())
			}
			cq, mq := totalQueries(cubes.Stats()), totalQueries(models.Stats())
			if mq > cq {
				t.Errorf("model engine issued more queries: %d > %d", mq, cq)
			}
			t.Logf("%s: queries cubes=%d models=%d (%.1fx)", p.Name, cq, mq, float64(cq)/float64(mq))
		})
	}
}

// TestEngineDifferentialDrivers runs the full CEGAR loop over every
// Table 1 driver under both engines: the verdict, iteration count,
// final predicate pool and final boolean program must be byte-identical,
// and the model engine's total query count must never exceed the cube
// engine's. Each engine's output is also pinned by corpusGolden.
func TestEngineDifferentialDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("full driver corpus in -short mode")
	}
	golden := map[string]string{}
	defer checkCorpusGolden(t, golden)
	for _, p := range corpus.Drivers() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			run := func(engine string) *VerifyResult {
				pv := prover.New()
				cfg := DefaultVerifyConfig()
				cfg.Opts.Engine = engine
				cfg.Prover = pv
				res, err := VerifySpec(p.Source, p.Spec, p.Entry, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if n := pv.GaveUp(); n != 0 {
					t.Errorf("%s: %d prover queries gave up", engine, n)
				}
				verdict := res.Outcome.String()
				golden[engine+" "+p.Name] = corpusLine(engine, p.Name, verdict, bp.Print(res.FinalBP),
					strings.Join(res.ErrorTrace, "\n"), res.ProverCalls, res.SessionChecks, res.Iterations)
				return res
			}
			cubes := run(EngineCubes)
			models := run(EngineModels)
			if cubes.Outcome != models.Outcome {
				t.Errorf("outcome: cubes %v, models %v", cubes.Outcome, models.Outcome)
			}
			if cubes.Iterations != models.Iterations {
				t.Errorf("iterations: cubes %d, models %d", cubes.Iterations, models.Iterations)
			}
			if cubes.PredCount != models.PredCount {
				t.Errorf("predicates: cubes %d, models %d", cubes.PredCount, models.PredCount)
			}
			for scope, preds := range cubes.Predicates {
				if got := strings.Join(models.Predicates[scope], ";"); got != strings.Join(preds, ";") {
					t.Errorf("predicate pool [%s]: cubes %v, models %v", scope, preds, models.Predicates[scope])
				}
			}
			if c, m := bp.Print(cubes.FinalBP), bp.Print(models.FinalBP); c != m {
				t.Errorf("final boolean programs differ\n--- cubes ---\n%s\n--- models ---\n%s", c, m)
			}
			if strings.Join(cubes.ErrorTrace, "\n") != strings.Join(models.ErrorTrace, "\n") {
				t.Errorf("error traces differ")
			}
			cq := cubes.ProverCalls + cubes.SessionChecks
			mq := models.ProverCalls + models.SessionChecks
			if mq > cq {
				t.Errorf("model engine issued more queries: %d > %d", mq, cq)
			}
			if models.ProverSessions == 0 {
				t.Error("models engine opened no sessions")
			}
			t.Logf("%s: %v after %d iteration(s); queries cubes=%d models=%d (%.1fx)",
				p.Name, cubes.Outcome, cubes.Iterations, cq, mq, float64(cq)/float64(mq))
		})
	}
}

// genProc emits one random small MiniC procedure plus a predicate file
// over its variables, for the differential fuzz test. Everything is
// drawn from rng only, so a seed fully determines the subject.
func genProc(rng *rand.Rand) (src, preds string) {
	vars := []string{"x", "y", "z"}
	conds := []string{
		"x < y", "x == 0", "y > 0", "z == x", "x <= z", "y == z + 1", "z > 1",
	}
	var b strings.Builder
	b.WriteString("int f(int x, int y) {\n  int z;\n  z = 0;\n")
	exprOf := func() string {
		v := vars[rng.Intn(len(vars))]
		switch rng.Intn(3) {
		case 0:
			return fmt.Sprintf("%d", rng.Intn(4))
		case 1:
			return v
		default:
			return fmt.Sprintf("%s + %d", v, 1+rng.Intn(3))
		}
	}
	assign := func(indent string) {
		fmt.Fprintf(&b, "%s%s = %s;\n", indent, vars[rng.Intn(len(vars))], exprOf())
	}
	n := 2 + rng.Intn(4)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			assign("  ")
		case 1:
			cond := conds[rng.Intn(len(conds))]
			fmt.Fprintf(&b, "  if (%s) {\n", cond)
			assign("    ")
			b.WriteString("  } else {\n")
			assign("    ")
			b.WriteString("  }\n")
		case 2:
			cond := conds[rng.Intn(len(conds))]
			fmt.Fprintf(&b, "  while (%s) {\n", cond)
			assign("    ")
			b.WriteString("  }\n")
		default:
			assign("  ")
		}
	}
	b.WriteString("  return z;\n}\n")

	// At most 3 predicates keeps the minterm spaces small enough that
	// the model engine's |S|+|T|+2 checks stay within the cube engine's
	// per-candidate query bill on every subject.
	k := 1 + rng.Intn(3)
	picked := map[string]bool{}
	var ps []string
	for len(ps) < k {
		c := conds[rng.Intn(len(conds))]
		if !picked[c] {
			picked[c] = true
			ps = append(ps, c)
		}
	}
	return b.String(), "f:\n  " + strings.Join(ps, ", ") + "\n"
}

// TestEngineDifferentialFuzz feeds deterministically generated random
// procedures through both engines: byte-identical output, and never
// more model-engine queries, on every subject.
func TestEngineDifferentialFuzz(t *testing.T) {
	subjects := 60
	if testing.Short() {
		subjects = 10
	}
	for seed := 0; seed < subjects; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		src, preds := genProc(rng)
		run := func(engine string) *BooleanProgram {
			prog, err := Load(src)
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, src)
			}
			opts := DefaultOptions()
			opts.Engine = engine
			bprog, err := prog.Abstract(preds, opts)
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, src)
			}
			return bprog
		}
		cubes := run(EngineCubes)
		models := run(EngineModels)
		if cubes.Text() != models.Text() {
			t.Errorf("seed %d: boolean programs differ\n--- source ---\n%s--- preds ---\n%s--- cubes ---\n%s--- models ---\n%s",
				seed, src, preds, cubes.Text(), models.Text())
		}
		if cq, mq := totalQueries(cubes.Stats()), totalQueries(models.Stats()); mq > cq {
			t.Errorf("seed %d: model engine issued more queries (%d > %d)\n--- source ---\n%s--- preds ---\n%s",
				seed, mq, cq, src, preds)
		}
	}
}
