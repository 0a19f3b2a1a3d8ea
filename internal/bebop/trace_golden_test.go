package bebop_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"predabs/internal/bebop"
	"predabs/internal/bp"
	"predabs/internal/corpus"
	"predabs/internal/slam"
)

const traceGolden = "testdata/traces.golden"

// TestTraceGolden pins every counterexample Checker.Trace returns, step
// by step and state by state, on three sets of boolean programs: the one
// each CEGAR iteration of the Table 1 drivers checks, the failing seeds
// of randomProgram, and the programs of this package's unit tests. Every
// reachable failure of each program is traced, not only the first. The
// search's order decides which path Newton refines, so a rewrite of the
// search must reproduce this file byte for byte.
func TestTraceGolden(t *testing.T) {
	var b strings.Builder
	for _, p := range corpus.Drivers() {
		for k := 1; ; k++ {
			cfg := slam.DefaultConfig()
			cfg.MaxIterations = k
			res, err := slam.VerifySpec(p.Source, p.Spec, p.Entry, cfg)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			writeTraces(t, &b, fmt.Sprintf("driver %s iteration %d", p.Name, k), res.FinalBP, p.Entry)
			if res.Iterations < k || res.Outcome != slam.Unknown {
				break
			}
		}
	}
	for seed := int64(0); seed < 300; seed++ {
		src := bebop.RandomProgram(rand.New(rand.NewSource(seed)))
		writeTraces(t, &b, fmt.Sprintf("random seed %d", seed), bp.MustParse(src), "main")
	}
	for _, file := range []string{"bebop_test.go", "bebop_extra_test.go", "trace_test.go"} {
		for i, src := range testPrograms(t, file) {
			writeTraces(t, &b, fmt.Sprintf("%s program %d", file, i), bp.MustParse(src), "main")
		}
	}
	got := b.String()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(traceGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(traceGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", traceGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: got %d lines, want %d", traceGolden, len(gl), len(wl))
	}
}

// writeTraces checks prog from entry and renders the trace to each
// reachable failure: a header naming the case, the sorted variable names
// of each procedure the trace visits, then one "proc:stmt bits" line per
// step with the state's bits in that name order.
func writeTraces(t *testing.T, b *strings.Builder, name string, prog *bp.Program, entry string) {
	t.Helper()
	c, err := bebop.Check(prog, entry)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, f := range c.Failures {
		steps, ok := c.Trace(entry, f)
		fmt.Fprintf(b, "== %s: failure %s:%d, ", name, f.Proc, f.Stmt)
		if !ok {
			b.WriteString("no trace\n")
			continue
		}
		fmt.Fprintf(b, "%d steps\n", len(steps))
		names := map[string][]string{}
		for _, s := range steps {
			if _, seen := names[s.Proc]; seen {
				continue
			}
			vs := []string{}
			for v := range s.State {
				vs = append(vs, v)
			}
			sort.Strings(vs)
			names[s.Proc] = vs
			fmt.Fprintf(b, "vars %s: %s\n", s.Proc, strings.Join(vs, ", "))
		}
		for _, s := range steps {
			fmt.Fprintf(b, "%s:%d ", s.Proc, s.Stmt)
			for _, v := range names[s.Proc] {
				if s.State[v] {
					b.WriteByte('1')
				} else {
					b.WriteByte('0')
				}
			}
			b.WriteByte('\n')
		}
	}
}

// testPrograms returns the boolean programs written as raw-string
// literals in one of this package's test files, in source order.
func testPrograms(t *testing.T, file string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING || !strings.HasPrefix(lit.Value, "`") {
			return true
		}
		src, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		if prog, err := bp.Parse(src); err == nil && prog.Proc("main") != nil {
			out = append(out, src)
		}
		return true
	})
	return out
}
