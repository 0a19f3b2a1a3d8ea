package prover

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"predabs/internal/cparse"
	"predabs/internal/form"
)

// TestConcurrentQueries hammers one shared Prover from many goroutines
// with overlapping Valid/Unsat queries, checking (a) every answer is
// correct regardless of interleaving and (b) the atomic counters add up.
// Run under `go test -race` (part of the tier-1 verify recipe) this also
// exercises the striped cache for data races.
func TestConcurrentQueries(t *testing.T) {
	hyps, goals, wants := concurrentQueries(t)
	p := New()
	const workers = 8
	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(hyps)
				if got := p.Valid(hyps[i], goals[i]); got != wants[i] {
					errs <- fmt.Sprintf("worker %d: Valid(%s => %s) = %v, want %v",
						w, hyps[i], goals[i], got, wants[i])
					return
				}
				// Unsat of hyp ∧ ¬goal is the same question.
				f := form.MkAnd(hyps[i], form.MkNot(goals[i]))
				if got := p.Unsat(f); got != wants[i] {
					errs <- fmt.Sprintf("worker %d: Unsat round-trip for (%s => %s) = %v, want %v",
						w, hyps[i], goals[i], got, wants[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	wantCalls := workers * rounds * 2
	if p.Calls() != wantCalls {
		t.Errorf("Calls = %d, want %d", p.Calls(), wantCalls)
	}
	// Each distinct key is computed at least once; everything else should
	// hit the cache (racing duplicates may recompute, so only a bound).
	if hits := p.CacheHits(); hits == 0 || hits >= wantCalls {
		t.Errorf("CacheHits = %d, want in (0, %d)", hits, wantCalls)
	}
	if p.SolverTime() <= 0 {
		t.Error("SolverTime should be positive after uncached queries")
	}
}

// concurrentQueries is a set of validity questions with known answers.
func concurrentQueries(t *testing.T) (hyps, goals []form.Formula, wants []bool) {
	mk := func(src string) form.Formula {
		e, err := cparse.ParseExpr(src)
		if err != nil {
			t.Fatal(err)
		}
		f, err := form.FromCond(e)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, q := range []struct {
		hyp, goal string
		valid     bool
	}{
		{"x == 1", "x < 2", true},
		{"x == 1", "x > 2", false},
		{"p == q && *p == 3", "*q == 3", true},
		{"i <= j && j <= i", "i == j", true},
		{"a[i] == 1 && i == j", "a[j] == 1", true},
		{"x > 0", "x > 1", false},
		{"curr != NULL && prev == NULL", "prev != curr", true},
		{"x + y == 4 && x - y == 2", "x == 3", true},
	} {
		hyps = append(hyps, mk(q.hyp))
		goals = append(goals, mk(q.goal))
		wants = append(wants, q.valid)
	}
	return hyps, goals, wants
}

// TestConcurrentTheoryMemo shares the prover-wide compiled table and
// theory-leaf memo between goroutines that all search: the query cache
// is off, and half the workers also ask through sessions, which fill and
// read the memo. Every answer must stay right, and some session leaves
// must come from the memo.
func TestConcurrentTheoryMemo(t *testing.T) {
	hyps, goals, wants := concurrentQueries(t)
	p := New()
	p.DisableCache = true
	const workers = 8
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(hyps)
				got := p.Valid(hyps[i], goals[i])
				if w%2 == 1 {
					s := p.NewSession()
					s.Assert(hyps[i])
					s.Assert(form.MkNot(goals[i]))
					v, _, _ := s.Check()
					s.Close()
					got = v == Unsat
				}
				if got != wants[i] {
					errs <- fmt.Sprintf("worker %d: %s => %s answered %v, want %v", w, hyps[i], goals[i], got, wants[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if leaves, hits := p.Stats().TheoryLeaves, p.Stats().TheoryMemoHits; hits == 0 || hits >= leaves {
		t.Errorf("theory leaves %d, memo hits %d: want hits in (0, leaves)", leaves, hits)
	}
}

// TestConcurrentCompiledTable grows one prover's compiled table from many
// goroutines at once: each worker first-sees comparisons over its own
// fresh variables, mixed with comparisons every worker shares, while a
// session enumerates models on the same prover. Every verdict and model
// must equal the one a fresh prover gives single-threaded.
func TestConcurrentCompiledTable(t *testing.T) {
	const workers = 8
	const rounds = 6
	p := New()
	var wg sync.WaitGroup
	got := make([][]string, workers+1)
	for w := 0; w <= workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w == workers {
				got[w] = tableSessionRun(p)
				return
			}
			got[w] = tableWorkerRun(p, w, rounds)
		}()
	}
	wg.Wait()
	for w := 0; w <= workers; w++ {
		var want []string
		if w == workers {
			want = tableSessionRun(New())
		} else {
			want = tableWorkerRun(New(), w, rounds)
		}
		if !slices.Equal(got[w], want) {
			t.Errorf("goroutine %d: verdicts %v, fresh prover %v", w, got[w], want)
		}
	}
}

// tableWorkerRun asks worker w's queries: per round, comparisons over
// variables no other worker or round names, and comparisons shared by all.
func tableWorkerRun(p *Prover, w, rounds int) []string {
	x, y := form.Var{Name: "x"}, form.Var{Name: "y"}
	var out []string
	for r := 0; r < rounds; r++ {
		u := form.Var{Name: fmt.Sprintf("u%d_%d", w, r)}
		v := form.Var{Name: fmt.Sprintf("v%d_%d", w, r)}
		q := form.Var{Name: fmt.Sprintf("q%d_%d", w, r)}
		one := form.Arith{Op: form.OpAdd, X: u, Y: form.Num{V: 1}}
		out = append(out, fmt.Sprint(
			p.Unsat(form.MkAnd(form.Cmp{Op: form.Lt, X: u, Y: v}, form.Cmp{Op: form.Lt, X: v, Y: u})),
			p.Valid(form.MkAnd(form.Cmp{Op: form.Eq, X: q, Y: form.AddrOf{X: u}}, form.Cmp{Op: form.Eq, X: u, Y: x}),
				form.Cmp{Op: form.Eq, X: form.Deref{X: q}, Y: x}),
			p.Valid(form.MkAnd(form.Cmp{Op: form.Le, X: x, Y: y}, form.Cmp{Op: form.Le, X: y, Y: x}),
				form.Cmp{Op: form.Eq, X: x, Y: y}),
			p.Unsat(form.MkAnd(form.Cmp{Op: form.Le, X: one, Y: x}, form.Cmp{Op: form.Le, X: x, Y: u})),
			p.Valid(form.Cmp{Op: form.Le, X: u, Y: form.Num{V: 3}}, form.Cmp{Op: form.Lt, X: u, Y: form.Num{V: 3}}),
			p.Unsat(form.MkAnd(form.Cmp{Op: form.Eq, X: form.AddrOf{X: u}, Y: form.AddrOf{X: v}}, form.Cmp{Op: form.Ne, X: x, Y: y})),
		))
	}
	return out
}

// tableSessionRun enumerates, per round, the models of a session over
// fresh and shared comparisons, blocking each model found.
func tableSessionRun(p *Prover) []string {
	x, y := form.Var{Name: "x"}, form.Var{Name: "y"}
	var out []string
	for r := 0; r < 4; r++ {
		s := form.Var{Name: fmt.Sprintf("s%d", r)}
		tracked := []form.Formula{
			form.Cmp{Op: form.Lt, X: x, Y: y},
			form.Cmp{Op: form.Eq, X: s, Y: form.Num{V: 0}},
			form.Cmp{Op: form.Le, X: s, Y: x},
		}
		se := p.NewSession()
		for _, f := range tracked {
			se.Track(f)
		}
		se.Assert(form.Cmp{Op: form.Ge, X: x, Y: form.Num{V: 0}})
		for i := 0; i < 10; i++ {
			v, vals, _ := se.Check()
			out = append(out, v.String())
			if v != Sat {
				break
			}
			var lits []form.Formula
			for i, f := range tracked {
				if vals[i] {
					lits = append(lits, f)
				} else {
					lits = append(lits, form.MkNot(f))
				}
			}
			out = append(out, fmt.Sprint(lits))
			se.Block(form.NNF(form.MkNot(form.MkAnd(lits...))))
		}
		se.Close()
	}
	return out
}

// TestImportExportCacheConcurrent hammers ImportCache / ExportCache /
// live queries from many goroutines (run under -race by
// verify-extended): exports must always be sorted, internally
// consistent snapshots, and the final state must contain every import.
func TestImportExportCacheConcurrent(t *testing.T) {
	p := New()
	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				p.ImportCache([]CacheEntry{{Key: fmt.Sprintf("U\x00imp-%d-%d", g, i), Val: i%2 == 0}})
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				out := p.ExportCache()
				if !sort.SliceIsSorted(out, func(a, b int) bool { return out[a].Key < out[b].Key }) {
					t.Error("concurrent export not in canonical order")
					return
				}
			}
		}()
	}
	wg.Wait()
	out := p.ExportCache()
	if len(out) != goroutines*perG {
		t.Fatalf("final export has %d entries, want %d", len(out), goroutines*perG)
	}
	if p.CacheSize() != goroutines*perG {
		t.Fatalf("CacheSize = %d, want %d", p.CacheSize(), goroutines*perG)
	}
	// Round-trip: importing an export into a fresh prover reproduces it.
	p2 := New()
	p2.ImportCache(out)
	out2 := p2.ExportCache()
	if len(out2) != len(out) {
		t.Fatalf("round-tripped export has %d entries, want %d", len(out2), len(out))
	}
	for i := range out {
		if out[i] != out2[i] {
			t.Fatalf("round-trip diverged at %d: %+v vs %+v", i, out[i], out2[i])
		}
	}
}
