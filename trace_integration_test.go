package predabs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"predabs/internal/abstract"
	"predabs/internal/prover"
	"predabs/internal/trace"
)

// The locking example from the paper's motivating discussion: the second
// AcquireLock drives the CEGAR loop through one refinement (harvesting
// {locked == 1}) before the real double-acquire shows up.
const lockBadSrc = `
void AcquireLock(void) { }
void ReleaseLock(void) { }
void main(void) {
  AcquireLock();
  AcquireLock();
}
`

const lockSpecSrc = `
state { int locked = 0; }
event AcquireLock entry { if (locked == 1) { abort; } locked = 1; }
event ReleaseLock entry { if (locked == 0) { abort; } locked = 0; }
`

// runTracedSlam runs the lock example through the full SLAM pipeline with
// a tracer attached, returning the result, the finished tracer and the
// JSONL it wrote.
func runTracedSlam(t *testing.T, jobs int) (*VerifyResult, *trace.Tracer, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	tr := trace.New(trace.Config{JSONL: &buf})
	cfg := DefaultVerifyConfig()
	cfg.Opts.Jobs = jobs
	cfg.Tracer = tr
	res, err := VerifySpec(lockBadSrc, lockSpecSrc, "main", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, tr, &buf
}

// normalizeTraceEvents strips the timing data (ts, dur, *_ns fields) from
// a JSONL event stream and renders each event as one deterministic line,
// so the stream can be pinned against a golden file.
func normalizeTraceEvents(t *testing.T, jsonl []byte) string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(jsonl))
	dec.UseNumber()
	var b strings.Builder
	for dec.More() {
		var ev struct {
			Type   string         `json:"type"`
			Cat    string         `json:"cat"`
			Name   string         `json:"name"`
			TS     json.Number    `json:"ts"`
			Dur    json.Number    `json:"dur"`
			Tid    json.Number    `json:"tid"`
			Fields map[string]any `json:"fields"`
		}
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("decode trace line: %v", err)
		}
		fmt.Fprintf(&b, "%s %s/%s", ev.Type, ev.Cat, ev.Name)
		if ev.Tid != "" {
			fmt.Fprintf(&b, " tid=%s", ev.Tid)
		}
		keys := make([]string, 0, len(ev.Fields))
		for k := range ev.Fields {
			if strings.HasSuffix(k, "_ns") {
				continue
			}
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%v", k, ev.Fields[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func compareGolden(t *testing.T, got, path string) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1 go test -run %s)", err, t.Name())
	}
	if got != string(want) {
		t.Errorf("output changed; regenerate with UPDATE_GOLDEN=1 go test -run %s\n--- got ---\n%s\n--- want ---\n%s",
			t.Name(), got, want)
	}
}

// TestSlamTraceJSONLGolden pins the structured event stream of a full
// SLAM run: every line must pass the schema validator, and the
// timing-stripped event sequence (categories, names and counter fields)
// is compared against a golden file. Jobs=1 keeps the stream fully
// deterministic.
func TestSlamTraceJSONLGolden(t *testing.T) {
	_, _, buf := runTracedSlam(t, 1)
	if n, err := trace.Validate(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("schema validation failed after %d lines: %v", n, err)
	} else if n == 0 {
		t.Fatal("no trace events emitted")
	}
	compareGolden(t, normalizeTraceEvents(t, buf.Bytes()), "testdata/slam_lock_trace_events.golden")
}

var (
	durRE = regexp.MustCompile(`\d+(\.\d+)?(ns|µs|ms|s)\b`)
	padRE = regexp.MustCompile(` +DUR`)
)

// maskDurations replaces every rendered wall time with "DUR" and
// collapses the column padding in front of it (right-aligned duration
// strings pad differently run to run).
func maskDurations(text string) string {
	return padRE.ReplaceAllString(durRE.ReplaceAllString(text, "DUR"), " DUR")
}

// TestSlamReportTextGolden pins the deterministic head of the -report
// text (outcome, counters, stage and procedure tables, bebop and newton
// rollups) with every wall time masked. The latency histogram and
// top-query list are timing-dependent, so only their presence is
// asserted.
func TestSlamReportTextGolden(t *testing.T) {
	_, tr, _ := runTracedSlam(t, 1)
	text := tr.Report().Text()
	for _, section := range []string{"prover latency histogram:", "most expensive prover queries:"} {
		if !strings.Contains(text, section) {
			t.Errorf("report missing section %q:\n%s", section, text)
		}
	}
	head := text
	if i := strings.Index(text, "prover latency histogram:"); i >= 0 {
		head = text[:i]
	}
	compareGolden(t, sortCostSections(maskDurations(head)), "testdata/slam_lock_report.golden")
}

// sortCostSections reorders the per-procedure lines of the report's
// "procedures (abstraction cost)" section alphabetically: the report
// sorts them by wall time, which is not deterministic across runs.
func sortCostSections(text string) string {
	lines := strings.Split(text, "\n")
	start := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "procedures (") {
			start = i + 1
			continue
		}
		if start >= 0 && !strings.HasPrefix(l, "  ") {
			sort.Strings(lines[start:i])
			start = -1
		}
	}
	return strings.Join(lines, "\n")
}

// reportAggregates is the subset of the report that must not depend on
// the cube-search worker count: every counter, but no wall time, no
// cache split (workers race on first computation of shared queries) and
// no event total (worker-lane spans scale with the pool size).
type reportAggregates struct {
	Outcome               string
	Iterations            int
	Predicates            int
	ProverCalls           int
	CubeRounds            int
	CubesChecked          int
	Procs                 []abstract.ProcCubeStat
	BebopIterations       int
	BebopIterationsByProc map[string]int
	MaxWorklist           int
	MaxBDDNodes           int
	NewtonRounds          []trace.NewtonRound
}

func aggregatesOf(rep *trace.Report) reportAggregates {
	a := reportAggregates{
		Outcome:               rep.Outcome,
		Iterations:            rep.Iterations,
		Predicates:            rep.Predicates,
		ProverCalls:           rep.ProverCalls,
		CubeRounds:            rep.CubeRounds,
		CubesChecked:          rep.CubesChecked,
		BebopIterations:       rep.BebopIterations,
		BebopIterationsByProc: rep.BebopIterationsByProc,
		MaxWorklist:           rep.MaxWorklist,
		MaxBDDNodes:           rep.MaxBDDNodes,
		NewtonRounds:          rep.NewtonRounds,
	}
	for _, p := range rep.Procs {
		a.Procs = append(a.Procs, abstract.ProcCubeStat{Name: p.Name, Rounds: p.Rounds, Cubes: p.Cubes})
	}
	return a
}

// TestReportAggregateDeterminism asserts the report aggregates are
// identical for a sequential and an 8-worker cube search: scheduling may
// reshuffle event timing and the cache hit/miss split, but never the
// counters the paper's tables are built from.
func TestReportAggregateDeterminism(t *testing.T) {
	runs := map[int]reportAggregates{}
	for _, jobs := range []int{1, 8} {
		_, tr, _ := runTracedSlam(t, jobs)
		runs[jobs] = aggregatesOf(tr.Report())
	}
	if !reflect.DeepEqual(runs[1], runs[8]) {
		t.Errorf("report aggregates differ between -j 1 and -j 8:\n--- j=1 ---\n%+v\n--- j=8 ---\n%+v",
			runs[1], runs[8])
	}
}

// TestReportTotalsMatchStats cross-checks the two bookkeeping paths: the
// counters aggregated from the event stream must equal the ones the
// facade reports through AbstractStats / CheckStats — for both
// abstraction engines (the models sub-run also pins the session
// counters, which the cube engine must leave at zero). Under each engine
// a slam run handed its own prover must also report exactly that
// prover's counters.
func TestReportTotalsMatchStats(t *testing.T) {
	var bprog *BooleanProgram
	for _, engine := range []string{EngineCubes, EngineModels} {
		t.Run(engine, func(t *testing.T) {
			tr := trace.New(trace.Config{})
			prog, err := Load(partitionSrc)
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.Jobs = 1
			opts.Engine = engine
			opts.Tracer = tr
			bprog, err = prog.Abstract(partitionPreds, opts)
			if err != nil {
				t.Fatal(err)
			}
			s := bprog.Stats()
			rep := tr.Report()
			for _, c := range []struct {
				name      string
				rep, stat int
			}{
				{"prover calls", rep.ProverCalls, s.ProverCalls},
				{"cache hits", rep.CacheHits, s.CacheHits},
				{"model answers", rep.ModelAnswers, s.ModelAnswers},
				{"model evaluations", rep.ModelEvals, s.ModelEvals},
				{"cache misses", rep.CacheMisses, s.CacheMisses()},
				{"gave up", rep.ProverGaveUp, s.ProverGaveUp},
				{"cubes checked", rep.CubesChecked, s.CubesChecked},
				{"cubes skipped", rep.CubesSkipped, s.CubesSkipped},
				{"cube rounds", rep.CubeRounds, s.CubeRounds},
				{"F_V reused", rep.FVReused, s.FVReused},
				{"enforce reused", rep.EnforceReused, s.EnforceReused},
				{"predicates", rep.Predicates, s.Predicates},
				{"sessions", rep.Sessions, s.ProverSessions},
				{"session checks", rep.SessionChecks, s.SessionChecks},
				{"models extracted", rep.ModelsExtracted, s.ModelsExtracted},
				{"search nodes", int(rep.SearchNodes), s.SearchNodes},
				{"theory leaves", int(rep.TheoryLeaves), s.TheoryLeaves},
			} {
				if c.rep != c.stat {
					t.Errorf("%s: report %d != stats %d", c.name, c.rep, c.stat)
				}
			}
			switch engine {
			case EngineCubes:
				if s.ProverSessions != 0 || s.SessionChecks != 0 || s.ModelsExtracted != 0 || s.BlockingClauses != 0 {
					t.Errorf("cube engine reported session activity: %+v", s)
				}
			case EngineModels:
				if s.ProverSessions == 0 {
					t.Error("models engine opened no sessions on partition")
				}
				// Every extracted model is answered with exactly one
				// blocking clause.
				if s.BlockingClauses != s.ModelsExtracted {
					t.Errorf("blocking clauses %d != models extracted %d",
						s.BlockingClauses, s.ModelsExtracted)
				}
			}
			var repProcs []abstract.ProcCubeStat
			for _, p := range rep.Procs {
				repProcs = append(repProcs, abstract.ProcCubeStat{Name: p.Name, Rounds: p.Rounds, Cubes: p.Cubes})
			}
			if !reflect.DeepEqual(repProcs, s.ProcCubes) {
				t.Errorf("per-proc cube stats: report %+v != stats %+v", repProcs, s.ProcCubes)
			}

			pv := prover.New()
			cfg := DefaultVerifyConfig()
			cfg.Opts.Jobs = 1
			cfg.Opts.Engine = engine
			cfg.Prover = pv
			cfg.Tracer = trace.New(trace.Config{})
			res, err := VerifySpec(lockBadSrc, lockSpecSrc, "main", cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats != pv.Stats() {
				t.Errorf("slam result stats %+v != its prover's %+v", res.Stats, pv.Stats())
			}
			slamRep := cfg.Tracer.Report()
			for _, c := range []struct {
				name      string
				rep, stat int
			}{
				{"cubes checked", slamRep.CubesChecked, res.CubesChecked},
				{"cubes skipped", slamRep.CubesSkipped, res.CubesSkipped},
				{"cube rounds", slamRep.CubeRounds, res.CubeRounds},
				{"F_V reused", slamRep.FVReused, res.FVReused},
				{"enforce reused", slamRep.EnforceReused, res.EnforceReused},
			} {
				if c.rep != c.stat {
					t.Errorf("slam %s: report %d != result %d", c.name, c.rep, c.stat)
				}
			}
			if res.CubesChecked == 0 {
				t.Error("slam checked no cubes")
			}
			if engine == EngineModels && res.SessionChecks == 0 {
				t.Error("models engine made no session checks in slam")
			}
		})
	}

	tr2 := trace.New(trace.Config{})
	chk, err := bprog.CheckTraced("partition", tr2)
	if err != nil {
		t.Fatal(err)
	}
	cs := chk.Stats()
	rep2 := tr2.Report()
	if rep2.BebopIterations != cs.Iterations {
		t.Errorf("bebop iterations: report %d != stats %d", rep2.BebopIterations, cs.Iterations)
	}
	if !reflect.DeepEqual(rep2.BebopIterationsByProc, cs.IterationsByProc) {
		t.Errorf("bebop iterations by proc: report %v != stats %v", rep2.BebopIterationsByProc, cs.IterationsByProc)
	}
}

// TestSlamResultMatchesReport asserts the slam Result totals agree with
// the trace aggregation for the same run.
func TestSlamResultMatchesReport(t *testing.T) {
	res, tr, _ := runTracedSlam(t, 1)
	rep := tr.Report()
	if rep.Outcome != res.Outcome.String() {
		t.Errorf("outcome: report %q != result %q", rep.Outcome, res.Outcome)
	}
	if rep.Iterations != res.Iterations {
		t.Errorf("iterations: report %d != result %d", rep.Iterations, res.Iterations)
	}
	if rep.ProverCalls != res.ProverCalls {
		t.Errorf("prover calls: report %d != result %d", rep.ProverCalls, res.ProverCalls)
	}
	if rep.BebopIterations != res.CheckIterations {
		t.Errorf("bebop iterations: report %d != result %d", rep.BebopIterations, res.CheckIterations)
	}
	if !reflect.DeepEqual(rep.BebopIterationsByProc, res.CheckIterationsByProc) {
		t.Errorf("bebop iterations by proc: report %v != result %v", rep.BebopIterationsByProc, res.CheckIterationsByProc)
	}
}

// TestExplainAnnotatedTrace exercises the source-level rendering of a
// counterexample: locations, branch annotations and predicate valuations.
func TestExplainAnnotatedTrace(t *testing.T) {
	res, _, _ := runTracedSlam(t, 1)
	if res.Outcome != ErrorFound {
		t.Fatalf("outcome %v, want error-found", res.Outcome)
	}
	lines := res.Explain("bad.c")
	if len(lines) == 0 {
		t.Fatal("Explain returned no lines")
	}
	joined := strings.Join(lines, "\n")
	for _, frag := range []string{
		"in main:",
		"in AcquireLock:",
		"bad.c:",
		"[then branch taken]",
		"{locked == 1}=true",
	} {
		if !strings.Contains(joined, frag) {
			t.Errorf("Explain output missing %q:\n%s", frag, joined)
		}
	}
	// A verified run has no trace to explain.
	var empty *VerifyResult = &VerifyResult{}
	if got := empty.Explain("x.c"); got != nil {
		t.Errorf("Explain on empty trace = %v, want nil", got)
	}
}
