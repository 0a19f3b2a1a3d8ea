package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestNilTracerZeroAlloc is the ISSUE's benchmark guard: every method on
// a disabled (nil) tracer must allocate nothing, so tracing can be
// threaded unconditionally through the hot cube-search and prover paths.
func TestNilTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	cases := map[string]func(){
		"Begin/End": func() {
			s := tr.Begin("cube", "round")
			s.End(Int("candidates", 12), Bool("changed", true))
		},
		"Event": func() {
			tr.Event("bebop", "iter", Str("proc", "main"), Int("worklist", 7), Int("bdd_nodes", 100))
		},
		"ProverQuery": func() {
			tr.ProverQuery("valid", "x>0 => x>=0", 12, time.Microsecond, true, false, false, Effort{Nodes: 3, Leaves: 1})
		},
	}
	for name, fn := range cases {
		if n := testing.AllocsPerRun(200, fn); n != 0 {
			t.Errorf("%s on nil tracer: %.1f allocs/op, want 0", name, n)
		}
	}
}

// emitSample drives one tracer through a representative slice of the
// taxonomy.
func emitSample(tr *Tracer) {
	tr.Begin("frontend", "parse").End()
	tr.Begin("frontend", "alias").End()

	run := tr.Begin("abstract", "run")
	proc := tr.Begin("abstract", "proc")
	cs := tr.Begin("cube", "search")
	rd := tr.Begin("cube", "round")
	tr.ProverQuery("valid", "p & q => r", 11, 3*time.Microsecond, true, false, false, Effort{Nodes: 5, Leaves: 2, FMRuns: 4, EqProbes: 1})
	tr.ProverQuery("valid", "p & q => r", 11, 0, true, true, false, Effort{})
	tr.ProverQuery("unsat", strings.Repeat("x", 500), 500, 90*time.Microsecond, false, false, true, Effort{Nodes: 7, Leaves: 3, FMRuns: 6, EqProbes: 2})
	rd.End(Int("candidates", 3), Int("len", 1))
	cs.End()
	proc.End(Str("proc", "main"), Int("rounds", 1), Int("cubes", 3))
	run.End()
	tr.Event("abstract", "predicates", Int("count", 5))

	chk := tr.Begin("bebop", "check")
	fix := tr.Begin("bebop", "fixpoint")
	tr.Event("bebop", "iter", Str("proc", "main"), Int("worklist", 4), Int("bdd_nodes", 64))
	tr.Event("bebop", "iter", Str("proc", "main"), Int("worklist", 2), Int("bdd_nodes", 80))
	fix.End()
	chk.End()

	na := tr.Begin("newton", "analyze")
	na.End(Int("path_len", 9), Int("infeasible_index", 2), Int("preds_harvested", 4),
		Bool("feasible", false), Bool("gave_up", false))

	tr.Event("slam", "outcome", Str("outcome", "verified"), Int("iterations", 2))
}

func TestJSONLValidatesAgainstSchema(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{JSONL: &buf})
	emitSample(tr)
	n, err := Validate(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("emitted JSONL failed schema validation: %v\n%s", err, buf.String())
	}
	if n == 0 {
		t.Fatal("no JSONL lines emitted")
	}
	// Every line must also be plain valid JSON with only expected keys
	// (ValidateLine uses DisallowUnknownFields, so this is double-checked),
	// and carry the correct record type.
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line is not JSON: %v: %s", err, line)
		}
	}
}

func TestValidateLineRejections(t *testing.T) {
	bad := []string{
		`{"type":"span","dur":1,"cat":"cube","name":"round"}`,                    // missing ts
		`{"ts":1,"type":"span","cat":"cube","name":"round"}`,                     // span without dur
		`{"ts":1,"type":"event","dur":3,"cat":"cube","name":"round"}`,            // event with dur
		`{"ts":1,"type":"span","dur":1,"cat":"nope","name":"round"}`,             // unknown category
		`{"ts":1,"type":"span","dur":1,"cat":"cube","name":"nope"}`,              // unknown name
		`{"ts":1,"type":"span","dur":1,"cat":"cache","name":"lookup"}`,           // unknown category (cache)
		`{"ts":1,"type":"huh","cat":"cube","name":"round"}`,                      // bad type
		`{"ts":1,"type":"event","cat":"cube","name":"round","tid":1}`,            // lane (tid) is not a key
		`{"ts":1,"type":"span","dur":1,"cat":"cube","name":"worker"}`,            // not a cube trace point
		`{"ts":1,"type":"event","cat":"cube","name":"round","extra":1}`,          // unknown key
		`{"ts":1,"type":"event","cat":"cube","name":"round","fields":{"x":[1]}}`, // non-scalar field
		`{"ts":0,"type":"span","dur":42,"cat":"prover","name":"query","fields":{"kind":"valid","size":9,"verdict":true,"cache_hit":false,"gave_up":false,"leaves":1,"fm_runs":0,"eq_probes":0,"desc":"x"}}`,            // no nodes
		`{"ts":0,"type":"span","dur":42,"cat":"prover","name":"query","fields":{"kind":"valid","size":9,"verdict":true,"cache_hit":false,"gave_up":false,"nodes":-1,"leaves":1,"fm_runs":0,"eq_probes":0,"desc":"x"}}`, // negative count
		`{"ts":0,"type":"span","dur":42,"cat":"prover","name":"query","fields":{"kind":"valid","size":9,"verdict":true,"cache_hit":false,"gave_up":false,"nodes":3,"leaves":1,"eq_probes":0,"desc":"x"}}`,              // no fm_runs
	}
	for _, line := range bad {
		if err := ValidateLine([]byte(line)); err == nil {
			t.Errorf("ValidateLine accepted invalid line: %s", line)
		}
	}
	good := `{"ts":0,"type":"span","dur":42,"cat":"prover","name":"query","fields":{"kind":"valid","size":9,"verdict":true,"cache_hit":false,"gave_up":false,"nodes":3,"leaves":1,"fm_runs":2,"eq_probes":0,"desc":"x > 0 => x >= 0"}}`
	if err := ValidateLine([]byte(good)); err != nil {
		t.Errorf("ValidateLine rejected valid line: %v", err)
	}
}

func TestReportAggregation(t *testing.T) {
	tr := New(Config{})
	emitSample(tr)
	r := tr.Report()

	if r.Outcome != "verified" || r.Iterations != 2 {
		t.Errorf("outcome = %q/%d, want verified/2", r.Outcome, r.Iterations)
	}
	if r.Predicates != 5 {
		t.Errorf("predicates = %d, want 5", r.Predicates)
	}
	if r.ProverCalls != 3 || r.CacheHits != 1 || r.CacheMisses != 2 || r.ProverGaveUp != 1 {
		t.Errorf("prover counts = %d/%d/%d/%d, want 3/1/2/1",
			r.ProverCalls, r.CacheHits, r.CacheMisses, r.ProverGaveUp)
	}
	if r.SearchNodes != 12 || r.TheoryLeaves != 5 || r.FMRuns != 10 || r.EqualityProbes != 3 {
		t.Errorf("search nodes/leaves/fm runs/probes = %d/%d/%d/%d, want 12/5/10/3",
			r.SearchNodes, r.TheoryLeaves, r.FMRuns, r.EqualityProbes)
	}
	if r.CubeRounds != 1 || r.CubesChecked != 3 {
		t.Errorf("cube rounds/checked = %d/%d, want 1/3", r.CubeRounds, r.CubesChecked)
	}
	if len(r.Procs) != 1 || r.Procs[0].Name != "main" || r.Procs[0].Rounds != 1 || r.Procs[0].Cubes != 3 {
		t.Errorf("procs = %+v, want one entry for main with rounds=1 cubes=3", r.Procs)
	}
	if r.BebopIterations != 2 || r.BebopIterationsByProc["main"] != 2 {
		t.Errorf("bebop iterations = %d (%v), want 2 for main", r.BebopIterations, r.BebopIterationsByProc)
	}
	if r.MaxWorklist != 4 || r.MaxBDDNodes != 80 {
		t.Errorf("max worklist/bdd = %d/%d, want 4/80", r.MaxWorklist, r.MaxBDDNodes)
	}
	if len(r.NewtonRounds) != 1 || r.NewtonRounds[0].PredsHarvested != 4 || r.NewtonRounds[0].InfeasibleIndex != 2 {
		t.Errorf("newton rounds = %+v", r.NewtonRounds)
	}
	// Cache hits are excluded from the latency histogram and solver time.
	totalHist := 0
	for _, h := range r.ProverHist {
		totalHist += h.Count
	}
	if totalHist != 2 {
		t.Errorf("histogram counts %d queries, want 2 (cache hits excluded)", totalHist)
	}
	if r.SolverNS != int64(3*time.Microsecond+90*time.Microsecond) {
		t.Errorf("solver ns = %d", r.SolverNS)
	}
	if len(r.TopQueries) != 2 || r.TopQueries[0].NS < r.TopQueries[1].NS {
		t.Errorf("top queries not sorted descending: %+v", r.TopQueries)
	}
	if !strings.HasSuffix(r.TopQueries[0].Desc, "…") || len(r.TopQueries[0].Desc) > maxQueryDesc+len("…") {
		t.Errorf("long query desc not truncated: %q", r.TopQueries[0].Desc)
	}
	for _, s := range []string{"parse", "alias", "signatures", "abstract", "cube-search", "check", "fixpoint", "newton"} {
		if s == "signatures" {
			continue // emitSample does not emit a signatures span
		}
		if _, ok := r.StageNS[s]; !ok {
			t.Errorf("stage %q missing from StageNS %v", s, r.StageNS)
		}
	}

	// Renderers must not fail and must mention headline numbers.
	txt := r.Text()
	for _, want := range []string{"outcome: verified", "predicates: 5", "theorem prover calls: 3", "cubes checked: 3"} {
		if !strings.Contains(txt, want) {
			t.Errorf("report text missing %q:\n%s", want, txt)
		}
	}
	if _, err := r.JSON(); err != nil {
		t.Errorf("report JSON: %v", err)
	}
}

func TestTopQueryBound(t *testing.T) {
	tr := New(Config{})
	for i := 0; i < 100; i++ {
		tr.ProverQuery("valid", "q", 1, time.Duration(i)*time.Microsecond, true, false, false, Effort{Nodes: 1, Leaves: 1})
	}
	r := tr.Report()
	if len(r.TopQueries) != topKQueries {
		t.Fatalf("top queries = %d, want %d", len(r.TopQueries), topKQueries)
	}
	if r.TopQueries[0].NS != int64(99*time.Microsecond) {
		t.Errorf("top query ns = %d, want 99µs", r.TopQueries[0].NS)
	}
	for i := 1; i < len(r.TopQueries); i++ {
		if r.TopQueries[i].NS > r.TopQueries[i-1].NS {
			t.Fatalf("top queries out of order at %d: %+v", i, r.TopQueries)
		}
	}
}

func TestWriteChrome(t *testing.T) {
	tr := New(Config{RetainChrome: true})
	emitSample(tr)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
	phases := map[string]int{}
	for _, e := range doc.TraceEvents {
		ph, _ := e["ph"].(string)
		phases[ph]++
		if tid, ok := e["tid"].(float64); !ok || tid != 0 {
			t.Errorf("event off the pipeline lane (tid 0): %v", e)
		}
		if _, ok := e["pid"]; !ok {
			t.Errorf("event missing pid: %v", e)
		}
	}
	if phases["X"] == 0 {
		t.Error("no complete (X) span events in chrome export")
	}
	if phases["i"] == 0 {
		t.Error("no instant (i) events in chrome export")
	}
	if phases["M"] == 0 {
		t.Error("no thread_name metadata events in chrome export")
	}

	// A nil tracer still writes a loadable (empty) document.
	var nilBuf bytes.Buffer
	if err := (*Tracer)(nil).WriteChrome(&nilBuf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(nilBuf.Bytes(), &doc); err != nil {
		t.Fatalf("nil-tracer chrome export invalid: %v", err)
	}
}

func TestConcurrentEmission(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{JSONL: &buf, RetainChrome: true})
	done := make(chan struct{})
	for range 8 {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				s := tr.Begin("cube", "round")
				tr.ProverQuery("valid", "f", 1, time.Microsecond, true, false, false, Effort{Nodes: 1, Leaves: 1})
				s.End()
			}
		}()
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	if n, err := Validate(bytes.NewReader(buf.Bytes())); err != nil || n != 8*50*2 {
		t.Fatalf("concurrent JSONL: %d lines, err %v (want %d lines)", n, err, 8*50*2)
	}
	if r := tr.Report(); r.ProverCalls != 400 {
		t.Fatalf("prover calls = %d, want 400", r.ProverCalls)
	}
}
