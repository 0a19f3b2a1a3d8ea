package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"predabs/internal/form"
	"predabs/internal/prover"
)

func TestTailIndexKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n, idx int
		pct    float64
	}{
		{100, 89, 90},  // enough samples: the true p90
		{200, 179, 90}, // twenty beyond, still p90
		{50, 39, 80},   // p90 would leave five beyond; fall back
		{11, 0, 100.0 / 11},
		{5, 2, 50}, // no rank has ten beyond: the median stands in
	} {
		idx, pct := tailIndex(c.n)
		if idx != c.idx || math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("tailIndex(%d) = %d, p%.2f; want %d, p%.2f", c.n, idx, pct, c.idx, c.pct)
		}
	}
	for n := 11; n <= 500; n++ {
		idx, _ := tailIndex(n)
		if beyond := n - 1 - idx; beyond < 10 {
			t.Fatalf("n=%d: %d samples beyond the tail percentile", n, beyond)
		}
		if idx != n-11 && idx != int(math.Ceil(0.9*float64(n)))-1 {
			t.Fatalf("n=%d: index %d is neither p90 nor the highest rank with ten beyond", n, idx)
		}
	}
}

func TestGeomean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 100}, 10},
		{[]float64{2, 8}, 4},
		{[]float64{7}, 7},
		{[]float64{1, 10, 100}, 10},
	} {
		if got := geomean(c.xs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("geomean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPassOrdersArePureInTheSeed(t *testing.T) {
	draw := func(seed int64) [][]int {
		next := passOrders(seed, 10)
		var out [][]int
		for i := 0; i < 8; i++ {
			out = append(out, next())
		}
		return out
	}
	a, b := draw(42), draw(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 42 gave two different order sequences:\n%v\n%v", a, b)
	}
	for _, order := range a {
		seen := map[int]bool{}
		for _, i := range order {
			seen[i] = true
		}
		if len(order) != 10 || len(seen) != 10 {
			t.Fatalf("order %v is not a permutation of 10 subjects", order)
		}
	}
	if reflect.DeepEqual(a, draw(43)) {
		t.Fatal("seeds 42 and 43 gave the same order sequence")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	r := &spanRecorder{spans: []span{
		{name: "run", parent: -1, start: 0, end: 10},
		{name: "a", parent: 0, start: 1, end: 4},
		{name: "b", parent: 0, start: 5, end: 7},
		{name: "c", parent: 2, start: 5, end: 6},
	}}
	if got, want := r.selfTimes(), []time.Duration{5, 3, 1, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

// The cube-search pool calls the timed wrapper from several workers at
// once; run with -race.
func TestTimedQuerierConcurrentCalls(t *testing.T) {
	q := &timedQuerier{Prover: prover.New()}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if !q.Valid(form.TrueF{}, form.TrueF{}) || !q.Unsat(form.FalseF{}) {
					t.Error("wrong verdict through the wrapper")
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := q.Calls(); got != 400 {
		t.Errorf("prover counted %d calls, want 400", got)
	}
	call, busy := q.totals()
	if busy <= 0 || busy > call {
		t.Errorf("busy %v, summed call time %v: want 0 < busy <= call", busy, call)
	}
	if q.inflight != 0 {
		t.Errorf("%d calls still in flight", q.inflight)
	}
}

func TestJudgeAppliesBounds(t *testing.T) {
	lower := boundedMetric{Name: "subject_ms_geomean", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := boundedMetric{Name: "throughput", Unit: "1/s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 100}
	scale := func(f float64) []float64 {
		var out []float64
		for _, x := range base {
			out = append(out, x*f)
		}
		return out
	}
	for _, c := range []struct {
		m    boundedMetric
		b    []float64
		want verdict
	}{
		{lower, scale(1.05), agree},
		{lower, scale(1.15), worse},
		{lower, scale(0.85), better},
		{higher, scale(0.85), worse},
		{higher, scale(1.15), better},
		{lower, []float64{60, 100, 140, 100, 80}, noisy},
		// Set-up time's spread is not gated, only its median.
		{boundedMetric{Name: "setup_s", Better: "lower", Bound: 0.25}, []float64{60, 100, 140, 100, 80}, agree},
	} {
		if got := judge(c.m, true, base, c.b); got != c.want {
			t.Errorf("%s %v vs %v: %s, want %s", c.m.Name, base, c.b, got, c.want)
		}
	}
	count := boundedMetric{Name: "prover.queries", Unit: "count"}
	if got := judge(count, false, []float64{3030.8, 3030.8}, []float64{3030.8}); got != exact {
		t.Errorf("equal counts: %s, want %s", got, exact)
	}
	if got := judge(count, false, []float64{3030.8}, []float64{3030.8, 3031}); got != differs {
		t.Errorf("different counts: %s, want %s", got, differs)
	}
	if got := judge(boundedMetric{Name: "abstract.share", Unit: "ratio"}, false, []float64{0.7}, []float64{0.2}); got != info {
		t.Errorf("unbounded ratio: %s, want %s", got, info)
	}
}

func TestCheckComparesResultFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs ...record) string {
		var buf bytes.Buffer
		for _, r := range recs {
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(b, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	rec := func(pass, queries float64) record {
		return record{Workload: "drivers-cegar", result: result{Correct: true, Attempted: 10, Metrics: map[string]metricValue{
			"subject_ms_geomean": {Value: pass, Unit: "ms"},
			"prover.queries":     {Value: queries, Unit: "count"},
		}}}
	}
	a := write("a.jsonl", rec(20, 3030.8), rec(20.5, 3030.8), rec(19.5, 3030.8))
	same := write("same.jsonl", rec(20.2, 3030.8), rec(20.4, 3030.8), rec(19.9, 3030.8))
	slower := write("slower.jsonl", rec(30, 3030.8), rec(31, 3030.8), rec(30.5, 3030.8))
	moreQueries := write("queries.jsonl", rec(20, 3100), rec(20, 3100), rec(20, 3100))
	for _, c := range []struct {
		b    string
		want bool
	}{{same, true}, {slower, false}, {moreQueries, false}} {
		var out bytes.Buffer
		ok, err := runCheck("../../BENCHMARK.json", a, c.b, &out)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.want {
			t.Errorf("check a vs %s = %t, want %t:\n%s", filepath.Base(c.b), ok, c.want, out.String())
		}
	}
}

// TestBenchmarkDefinition pins BENCHMARK.json to the harness: the same
// workloads, and the same metric names and units in the same order.
func TestBenchmarkDefinition(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		definition
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, workloadNames())
	}
	same := func(kind string, listed []boundedMetric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, harness reports %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), harness has %s (%s)",
					kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer())
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, m := range append(def.EndToEnd, def.PerLayer...) {
		if !valid.MatchString(m.Name) {
			t.Errorf("metric name %q is not a valid name", m.Name)
		}
	}
	for _, m := range def.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestSmokePass runs one short pass of drivers-cegar and bebop-check,
// untraced and traced, and checks that every run is correct and that the
// printed result names every metric with its unit.
func TestSmokePass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the corpus")
	}
	for _, name := range []string{"drivers-cegar", "bebop-check"} {
		for _, traced := range []bool{false, true} {
			w, _ := workloadByName(name)
			m, err := measure(w, config{seed: 1, traced: traced, setups: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !m.correct() || m.failed != 0 || m.attempted == 0 {
				t.Fatalf("%s traced=%t: %d of %d runs failed: %v", name, traced, m.failed, m.attempted, m.failures)
			}
			defs := endToEnd
			if traced {
				defs = perLayer()
			}
			var out bytes.Buffer
			mets := m.metrics()
			printResult(&out, m, mets, m.result(mets))
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the JSON result: %v", name, err)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%t: %d metrics printed, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				mv, ok := res.Metrics[d.name]
				if !ok || mv.Unit != d.unit {
					t.Errorf("%s traced=%t: metric %s missing or not in %s: %+v", name, traced, d.name, d.unit, mv)
				}
				if !regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(d.name) + `\s+\S+ ` + regexp.QuoteMeta(d.unit)).MatchString(out.String()) {
					t.Errorf("%s traced=%t: no table line for %s in %s", name, traced, d.name, d.unit)
				}
			}
			if traced && name == "drivers-cegar" {
				if q := res.Metrics["prover.queries"].Value; q == 0 {
					t.Error("drivers-cegar: traced run saw no prover queries")
				}
				if res.Metrics["prover.gave_up"].Value != 0 {
					t.Error("drivers-cegar: prover gave up")
				}
			}
		}
	}
}
