package trace

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"time"
)

// topKQueries bounds the most-expensive-query list in the report.
const topKQueries = 10

// topKProcs bounds the most-expensive-procedure list in the report.
const topKProcs = 10

// histBuckets is the number of exponential prover-latency buckets:
// bucket i counts queries with duration in [2^(i-1), 2^i) microseconds
// (bucket 0 is < 1µs).
const histBuckets = 22

// ProcCost is the per-procedure abstraction cost rollup.
type ProcCost struct {
	Name string `json:"name"`
	// NS is the cumulative abstraction wall time (summed across CEGAR
	// iterations).
	NS int64 `json:"ns"`
	// Rounds is the number of prover-backed cube-search rounds.
	Rounds int `json:"rounds"`
	// Cubes is the number of cube candidates submitted to the prover.
	Cubes int `json:"cubes"`
}

// QueryCost is one entry of the most-expensive-query list.
type QueryCost struct {
	Kind    string `json:"kind"`
	Desc    string `json:"desc"`
	NS      int64  `json:"ns"`
	Size    int    `json:"size"`
	Verdict bool   `json:"verdict"`
}

// HistBucket is one prover-latency histogram bucket.
type HistBucket struct {
	// Label is the human-readable bucket range, e.g. "2µs–4µs".
	Label string `json:"label"`
	Count int    `json:"count"`
}

// NewtonRound is the cost rollup of one refinement round.
type NewtonRound struct {
	PathLen int `json:"path_len"`
	// InfeasibleIndex is the event index (from the end of the path) where
	// the backward condition became unsatisfiable; -1 if the path was
	// feasible or the analysis gave up.
	InfeasibleIndex int  `json:"infeasible_index"`
	PredsHarvested  int  `json:"preds_harvested"`
	Feasible        bool `json:"feasible"`
	GaveUp          bool `json:"gave_up"`
}

// DegradeCost is one degradation row of the report: a (stage, limit)
// pair that fired, with the first occurrence's detail. The count comes
// from the structured result (budget.Tracker); the trace stream carries
// only the first firing per pair.
type DegradeCost struct {
	Stage  string `json:"stage"`
	Limit  string `json:"limit"`
	Detail string `json:"detail,omitempty"`
}

// CheckpointInfo is the report's checkpoint/resume section, present only
// when the run touched a state directory (-state/-resume/-no-persist).
type CheckpointInfo struct {
	// Resumed is true when the run warm-started from a journal snapshot;
	// ResumedIteration is the last committed iteration it continued
	// after, and RestoredVerdicts the prover-cache entries imported.
	Resumed          bool `json:"resumed"`
	ResumedIteration int  `json:"resumed_iteration,omitempty"`
	RestoredVerdicts int  `json:"restored_verdicts,omitempty"`
	// RestoreNS is the wall time of journal replay + warm start.
	RestoreNS int64 `json:"restore_ns,omitempty"`
	// Commits counts durable iteration records appended this run;
	// CommitNS is their cumulative wall time (fsync included).
	Commits  int   `json:"commits"`
	CommitNS int64 `json:"commit_ns,omitempty"`
	// Repairs counts torn-tail truncations performed on open; ColdStarts
	// counts journals rejected (corrupt or incompatible) and recreated.
	Repairs    int `json:"repairs,omitempty"`
	ColdStarts int `json:"cold_starts,omitempty"`
	// FinalOutcome is the outcome durably journaled at exit ("" when the
	// run did not reach a final record).
	FinalOutcome string `json:"final_outcome,omitempty"`
}

// Report is the end-of-run aggregation of the event stream: the paper's
// Table 1/2 cost columns plus latency detail. The deterministic subset
// (counts, not wall times) is identical run to run;
// TestReportAggregateDeterminism pins that.
type Report struct {
	// Outcome is the slam verdict ("verified", "error-found", "unknown"),
	// or "" outside the slam workflow.
	Outcome string `json:"outcome,omitempty"`
	// Iterations is the number of CEGAR iterations (0 outside slam).
	Iterations int `json:"iterations,omitempty"`
	// Predicates is the number of predicates in the final abstraction.
	Predicates int `json:"predicates"`

	ProverCalls  int   `json:"prover_calls"`
	CacheHits    int   `json:"cache_hits"`
	ModelAnswers int   `json:"model_answers"`
	ModelEvals   int   `json:"model_evals"` // summed over the cube/search and cube/enforce spans
	CacheMisses  int   `json:"cache_misses"`
	ProverGaveUp int   `json:"prover_gave_up"`
	SolverNS     int64 `json:"solver_ns"`
	// SearchNodes, TheoryLeaves, FMRuns and EqualityProbes sum the
	// prover's search effort — DPLL nodes, theory leaves, and the
	// Fourier–Motzkin runs and equality probes of the leaves checked —
	// over the searched prover.query events and the abs.enum session
	// spans.
	SearchNodes    int64 `json:"search_nodes"`
	TheoryLeaves   int64 `json:"theory_leaves"`
	FMRuns         int64 `json:"fm_runs"`
	EqualityProbes int64 `json:"eq_probes"`

	// Sessions, SessionChecks and ModelsExtracted aggregate the
	// model-enumeration engine's "abs.enum" spans; all zero (and omitted)
	// under the default cube engine. ProverCalls + SessionChecks is the
	// run's total prover interaction count.
	Sessions        int `json:"sessions,omitempty"`
	SessionChecks   int `json:"session_checks,omitempty"`
	ModelsExtracted int `json:"models_extracted,omitempty"`

	CubeRounds   int `json:"cube_rounds"`
	CubesChecked int `json:"cubes_checked"`
	// CubesSkipped sums the "skipped" field of the cube/enforce spans:
	// enforce candidates never submitted because their predicates share
	// no symbol the prover relates.
	CubesSkipped int `json:"cubes_skipped"`
	// FVReused and EnforceReused sum the "reused" and "enforce_reused"
	// fields of the abstract/proc spans: F_V results and enforce
	// invariants served from a scope record instead of searched.
	FVReused      int `json:"fv_reused"`
	EnforceReused int `json:"enforce_reused"`

	// StageNS maps pipeline stage names (parse, alias, signatures,
	// abstract, cube-search, check, newton) to cumulative wall time;
	// check covers Bebop's fixpoint and its counterexample search.
	StageNS map[string]int64 `json:"stage_ns"`

	// Procs is the per-procedure abstraction rollup, in first-abstracted
	// order.
	Procs []ProcCost `json:"procs,omitempty"`

	BebopIterations int `json:"bebop_iterations,omitempty"`
	// BebopIterationsByProc counts worklist items per procedure.
	BebopIterationsByProc map[string]int `json:"bebop_iterations_by_proc,omitempty"`
	// MaxWorklist is the deepest worklist observed during the fixpoint.
	MaxWorklist int `json:"max_worklist,omitempty"`
	// MaxBDDNodes is the largest BDD node table observed.
	MaxBDDNodes int `json:"max_bdd_nodes,omitempty"`

	NewtonRounds []NewtonRound `json:"newton_rounds,omitempty"`

	// Degradations lists the resource limits that fired during the run,
	// in first-fired order (empty for an undegraded run).
	Degradations []DegradeCost `json:"degradations,omitempty"`

	// ProverHist is the query-latency histogram (non-cache-hit queries).
	ProverHist []HistBucket `json:"prover_hist,omitempty"`
	// TopQueries lists the most expensive individual prover queries.
	TopQueries []QueryCost `json:"top_queries,omitempty"`

	// Checkpoint reports checkpoint/resume activity (nil when the run
	// had no state directory).
	Checkpoint *CheckpointInfo `json:"checkpoint,omitempty"`

	// Events is the total number of trace records consumed.
	Events int `json:"events"`
}

// aggregator folds events into report state. It is guarded by the
// tracer's mutex.
type aggregator struct {
	events int

	outcome    string
	iterations int
	predicates int

	proverCalls  int
	cacheHits    int
	modelAnswers int
	modelEvals   int
	proverGaveUp int
	solverNS     int64
	searchNodes  int64
	theoryLeaves int64
	fmRuns       int64
	eqProbes     int64

	cubeRounds    int
	cubesChecked  int
	cubesSkipped  int
	fvReused      int
	enforceReused int

	sessions        int
	sessionChecks   int
	modelsExtracted int

	stageNS map[string]int64

	procOrder []string
	procs     map[string]*ProcCost

	bebopIters       int
	bebopItersByProc map[string]int
	maxWorklist      int
	maxBDDNodes      int

	newtonRounds []NewtonRound

	degradations []DegradeCost

	hist [histBuckets]int
	topQ []QueryCost // sorted descending by NS, at most topKQueries

	ckpt *CheckpointInfo
}

func (a *aggregator) init() {
	a.stageNS = map[string]int64{}
	a.procs = map[string]*ProcCost{}
	a.bebopItersByProc = map[string]int{}
}

// fieldInt reads an integer field by key (also accepts bools as 0/1).
func fieldIntVal(fields []Field, key string) (int64, bool) {
	for _, f := range fields {
		if f.Key == key && (f.kind == fieldInt || f.kind == fieldBool) {
			return f.num, true
		}
	}
	return 0, false
}

func fieldStrVal(fields []Field, key string) (string, bool) {
	for _, f := range fields {
		if f.Key == key && f.kind == fieldStr {
			return f.str, true
		}
	}
	return "", false
}

func fieldBoolVal(fields []Field, key string) bool {
	v, _ := fieldIntVal(fields, key)
	return v != 0
}

// consume folds one record. It copies everything it retains; the fields
// slice itself is never stored.
func (a *aggregator) consume(cat, name string, dur time.Duration, fields []Field) {
	a.events++
	switch cat {
	case "frontend":
		a.stageNS[name] += int64(dur)
	case "abstract":
		switch name {
		case "signatures":
			a.stageNS["signatures"] += int64(dur)
		case "run":
			a.stageNS["abstract"] += int64(dur)
		case "predicates":
			if n, ok := fieldIntVal(fields, "count"); ok {
				a.predicates = int(n)
			}
		case "proc":
			proc, _ := fieldStrVal(fields, "proc")
			if proc == "" {
				return
			}
			pc := a.procs[proc]
			if pc == nil {
				pc = &ProcCost{Name: proc}
				a.procs[proc] = pc
				a.procOrder = append(a.procOrder, proc)
			}
			pc.NS += int64(dur)
			if n, ok := fieldIntVal(fields, "rounds"); ok {
				pc.Rounds += int(n)
			}
			if n, ok := fieldIntVal(fields, "cubes"); ok {
				pc.Cubes += int(n)
			}
			if n, ok := fieldIntVal(fields, "reused"); ok {
				a.fvReused += int(n)
			}
			if n, ok := fieldIntVal(fields, "enforce_reused"); ok {
				a.enforceReused += int(n)
			}
		}
	case "cube":
		switch name {
		case "search", "enforce":
			a.stageNS["cube-search"] += int64(dur)
			if n, ok := fieldIntVal(fields, "skipped"); ok {
				a.cubesSkipped += int(n)
			}
			if n, ok := fieldIntVal(fields, "model_evals"); ok {
				a.modelEvals += int(n)
			}
		case "round":
			a.cubeRounds++
			if n, ok := fieldIntVal(fields, "candidates"); ok {
				a.cubesChecked += int(n)
			}
		}
	case "abs.enum":
		if name != "session" {
			return
		}
		a.sessions++
		if n, ok := fieldIntVal(fields, "checks"); ok {
			a.sessionChecks += int(n)
		}
		if n, ok := fieldIntVal(fields, "models"); ok {
			a.modelsExtracted += int(n)
		}
		// Session checks answered from the prover's shared cache count
		// toward its global cache hits, so fold them in here; the misses
		// computation below accounts session checks accordingly.
		if n, ok := fieldIntVal(fields, "cache_hits"); ok {
			a.cacheHits += int(n)
		}
		a.noteEffort(fields)
	case "prover":
		if name != "query" {
			return
		}
		a.proverCalls++
		if fieldBoolVal(fields, "cache_hit") {
			a.cacheHits++
			return
		}
		if fieldBoolVal(fields, "model_answer") {
			a.modelAnswers++
			return
		}
		if fieldBoolVal(fields, "gave_up") {
			a.proverGaveUp++
		}
		a.noteEffort(fields)
		a.solverNS += int64(dur)
		a.hist[histBucket(dur)]++
		a.noteQuery(fields, dur)
	case "bebop":
		switch name {
		case "check", "trace":
			a.stageNS["check"] += int64(dur)
		case "fixpoint":
			a.stageNS["fixpoint"] += int64(dur)
		case "iter":
			a.bebopIters++
			if proc, ok := fieldStrVal(fields, "proc"); ok {
				a.bebopItersByProc[proc]++
			}
			if n, ok := fieldIntVal(fields, "worklist"); ok && int(n) > a.maxWorklist {
				a.maxWorklist = int(n)
			}
			if n, ok := fieldIntVal(fields, "bdd_nodes"); ok && int(n) > a.maxBDDNodes {
				a.maxBDDNodes = int(n)
			}
		}
	case "newton":
		if name != "analyze" {
			return
		}
		a.stageNS["newton"] += int64(dur)
		r := NewtonRound{InfeasibleIndex: -1}
		if n, ok := fieldIntVal(fields, "path_len"); ok {
			r.PathLen = int(n)
		}
		if n, ok := fieldIntVal(fields, "infeasible_index"); ok {
			r.InfeasibleIndex = int(n)
		}
		if n, ok := fieldIntVal(fields, "preds_harvested"); ok {
			r.PredsHarvested = int(n)
		}
		r.Feasible = fieldBoolVal(fields, "feasible")
		r.GaveUp = fieldBoolVal(fields, "gave_up")
		a.newtonRounds = append(a.newtonRounds, r)
	case "degrade":
		if name != "limit" {
			return
		}
		d := DegradeCost{}
		d.Stage, _ = fieldStrVal(fields, "stage")
		d.Limit, _ = fieldStrVal(fields, "limit")
		d.Detail, _ = fieldStrVal(fields, "detail")
		a.degradations = append(a.degradations, d)
	case "checkpoint":
		if a.ckpt == nil {
			a.ckpt = &CheckpointInfo{}
		}
		switch name {
		case "restore":
			a.ckpt.Resumed = true
			a.ckpt.RestoreNS += int64(dur)
			if n, ok := fieldIntVal(fields, "iteration"); ok {
				a.ckpt.ResumedIteration = int(n)
			}
			if n, ok := fieldIntVal(fields, "cache_entries"); ok {
				a.ckpt.RestoredVerdicts = int(n)
			}
		case "commit":
			a.ckpt.Commits++
			a.ckpt.CommitNS += int64(dur)
		case "repair":
			a.ckpt.Repairs++
		case "coldstart":
			a.ckpt.ColdStarts++
		case "final":
			if s, ok := fieldStrVal(fields, "outcome"); ok {
				a.ckpt.FinalOutcome = s
			}
		}
	case "slam":
		if name == "outcome" {
			if s, ok := fieldStrVal(fields, "outcome"); ok {
				a.outcome = s
			}
			if n, ok := fieldIntVal(fields, "iterations"); ok {
				a.iterations = int(n)
			}
		}
	}
}

// noteEffort adds an event's search-effort fields to the totals.
func (a *aggregator) noteEffort(fields []Field) {
	if n, ok := fieldIntVal(fields, "nodes"); ok {
		a.searchNodes += n
	}
	if n, ok := fieldIntVal(fields, "leaves"); ok {
		a.theoryLeaves += n
	}
	if n, ok := fieldIntVal(fields, "fm_runs"); ok {
		a.fmRuns += n
	}
	if n, ok := fieldIntVal(fields, "eq_probes"); ok {
		a.eqProbes += n
	}
}

// noteQuery inserts a query into the bounded top-K list.
func (a *aggregator) noteQuery(fields []Field, dur time.Duration) {
	if len(a.topQ) == topKQueries && int64(dur) <= a.topQ[len(a.topQ)-1].NS {
		return
	}
	q := QueryCost{NS: int64(dur)}
	q.Kind, _ = fieldStrVal(fields, "kind")
	q.Desc, _ = fieldStrVal(fields, "desc")
	if n, ok := fieldIntVal(fields, "size"); ok {
		q.Size = int(n)
	}
	q.Verdict = fieldBoolVal(fields, "verdict")
	i := sort.Search(len(a.topQ), func(i int) bool { return a.topQ[i].NS < q.NS })
	a.topQ = append(a.topQ, QueryCost{})
	copy(a.topQ[i+1:], a.topQ[i:])
	a.topQ[i] = q
	if len(a.topQ) > topKQueries {
		a.topQ = a.topQ[:topKQueries]
	}
}

// histBucket maps a duration to its exponential µs bucket.
func histBucket(d time.Duration) int {
	us := uint64(d / time.Microsecond)
	b := bits.Len64(us)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

func histLabel(i int) string {
	if i == 0 {
		return "<1µs"
	}
	lo := uint64(1) << (i - 1)
	hi := uint64(1) << i
	return fmt.Sprintf("%s–%s", usString(lo), usString(hi))
}

func usString(us uint64) string {
	return time.Duration(us * uint64(time.Microsecond)).String()
}

// Report snapshots the aggregation so far. Safe to call concurrently
// with ongoing event emission (and repeatedly).
func (t *Tracer) Report() *Report {
	if t == nil {
		return &Report{StageNS: map[string]int64{}}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a := &t.agg
	r := &Report{
		Outcome:        a.outcome,
		Iterations:     a.iterations,
		Predicates:     a.predicates,
		ProverCalls:    a.proverCalls,
		CacheHits:      a.cacheHits,
		ModelAnswers:   a.modelAnswers,
		ModelEvals:     a.modelEvals,
		CacheMisses:    a.proverCalls + a.sessionChecks - a.cacheHits - a.modelAnswers,
		ProverGaveUp:   a.proverGaveUp,
		SolverNS:       a.solverNS,
		SearchNodes:    a.searchNodes,
		TheoryLeaves:   a.theoryLeaves,
		FMRuns:         a.fmRuns,
		EqualityProbes: a.eqProbes,

		Sessions:        a.sessions,
		SessionChecks:   a.sessionChecks,
		ModelsExtracted: a.modelsExtracted,

		CubeRounds:    a.cubeRounds,
		CubesChecked:  a.cubesChecked,
		CubesSkipped:  a.cubesSkipped,
		FVReused:      a.fvReused,
		EnforceReused: a.enforceReused,
		StageNS:       map[string]int64{},

		BebopIterations: a.bebopIters,
		MaxWorklist:     a.maxWorklist,
		MaxBDDNodes:     a.maxBDDNodes,
		Events:          a.events,
	}
	for k, v := range a.stageNS {
		r.StageNS[k] = v
	}
	for _, name := range a.procOrder {
		r.Procs = append(r.Procs, *a.procs[name])
	}
	if len(a.bebopItersByProc) > 0 {
		r.BebopIterationsByProc = map[string]int{}
		for k, v := range a.bebopItersByProc {
			r.BebopIterationsByProc[k] = v
		}
	}
	r.NewtonRounds = append(r.NewtonRounds, a.newtonRounds...)
	r.Degradations = append(r.Degradations, a.degradations...)
	for i, n := range a.hist {
		if n > 0 {
			r.ProverHist = append(r.ProverHist, HistBucket{Label: histLabel(i), Count: n})
		}
	}
	r.TopQueries = append(r.TopQueries, a.topQ...)
	if a.ckpt != nil {
		c := *a.ckpt
		r.Checkpoint = &c
	}
	return r
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// stageOrder is the pipeline ordering for the stage table.
var stageOrder = []string{"parse", "alias", "signatures", "abstract", "cube-search", "check", "fixpoint", "newton"}

// Text renders the report as a human-readable summary, mirroring (and
// extending) the -stats output of the CLIs.
func (r *Report) Text() string {
	var b strings.Builder
	b.WriteString("=== run report ===\n")
	if r.Outcome != "" {
		fmt.Fprintf(&b, "outcome: %s (CEGAR iterations: %d)\n", r.Outcome, r.Iterations)
	}
	fmt.Fprintf(&b, "predicates: %d\n", r.Predicates)
	fmt.Fprintf(&b, "theorem prover calls: %d (cache hits: %d, model answers: %d, misses: %d, gave up: %d), model evaluations: %d\n",
		r.ProverCalls, r.CacheHits, r.ModelAnswers, r.CacheMisses, r.ProverGaveUp, r.ModelEvals)
	if r.Sessions > 0 {
		fmt.Fprintf(&b, "prover sessions: %d (checks: %d, models extracted: %d)\n",
			r.Sessions, r.SessionChecks, r.ModelsExtracted)
	}
	fmt.Fprintf(&b, "cubes checked: %d (in %d search rounds; %d disconnected enforce cubes skipped; reused %d F_V results, %d enforce invariants)\n",
		r.CubesChecked, r.CubeRounds, r.CubesSkipped, r.FVReused, r.EnforceReused)
	fmt.Fprintf(&b, "prover search: %d nodes, %d theory leaves, %d fourier-motzkin runs, %d equality probes\n",
		r.SearchNodes, r.TheoryLeaves, r.FMRuns, r.EqualityProbes)
	fmt.Fprintf(&b, "theory solver time: %v\n", time.Duration(r.SolverNS))

	var stages []string
	for _, s := range stageOrder {
		if ns, ok := r.StageNS[s]; ok {
			stages = append(stages, fmt.Sprintf("  %-12s %v", s, time.Duration(ns)))
		}
	}
	// Any stage the ordering does not know yet still prints.
	var extra []string
	for s, ns := range r.StageNS {
		if !containsStr(stageOrder, s) {
			extra = append(extra, fmt.Sprintf("  %-12s %v", s, time.Duration(ns)))
		}
	}
	sort.Strings(extra)
	if len(stages)+len(extra) > 0 {
		b.WriteString("stages:\n")
		for _, s := range append(stages, extra...) {
			b.WriteString(s + "\n")
		}
	}

	if len(r.Procs) > 0 {
		b.WriteString("procedures (abstraction cost):\n")
		top := topProcs(r.Procs, topKProcs)
		for _, p := range top {
			fmt.Fprintf(&b, "  %-16s %10v  rounds=%-4d cubes=%d\n",
				p.Name, time.Duration(p.NS), p.Rounds, p.Cubes)
		}
	}

	if r.BebopIterations > 0 {
		fmt.Fprintf(&b, "bebop: %d fixpoint iterations (max worklist %d, max BDD nodes %d)\n",
			r.BebopIterations, r.MaxWorklist, r.MaxBDDNodes)
		if len(r.BebopIterationsByProc) > 0 {
			names := make([]string, 0, len(r.BebopIterationsByProc))
			for n := range r.BebopIterationsByProc {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Fprintf(&b, "  proc %-16s %d iterations\n", n, r.BebopIterationsByProc[n])
			}
		}
	}

	for i, nr := range r.NewtonRounds {
		fmt.Fprintf(&b, "newton round %d: path length %d, ", i+1, nr.PathLen)
		switch {
		case nr.GaveUp:
			b.WriteString("gave up\n")
		case nr.Feasible:
			b.WriteString("feasible (real error)\n")
		default:
			fmt.Fprintf(&b, "infeasible at suffix index %d, %d predicate(s) harvested\n",
				nr.InfeasibleIndex, nr.PredsHarvested)
		}
	}

	if c := r.Checkpoint; c != nil {
		b.WriteString("checkpoint:\n")
		if c.Resumed {
			fmt.Fprintf(&b, "  resumed after iteration %d (%d cached verdicts restored in %v)\n",
				c.ResumedIteration, c.RestoredVerdicts, time.Duration(c.RestoreNS))
		} else {
			b.WriteString("  cold start (no prior committed iteration)\n")
		}
		fmt.Fprintf(&b, "  commits: %d (%v)\n", c.Commits, time.Duration(c.CommitNS))
		if c.Repairs > 0 {
			fmt.Fprintf(&b, "  torn-tail repairs: %d\n", c.Repairs)
		}
		if c.ColdStarts > 0 {
			fmt.Fprintf(&b, "  journals rejected and recreated: %d\n", c.ColdStarts)
		}
		if c.FinalOutcome != "" {
			fmt.Fprintf(&b, "  final record: %s\n", c.FinalOutcome)
		}
	}

	if len(r.Degradations) > 0 {
		b.WriteString("degradations (soundly weakened on resource limits):\n")
		for _, d := range r.Degradations {
			if d.Detail != "" {
				fmt.Fprintf(&b, "  %-10s %-14s %s\n", d.Stage, d.Limit, d.Detail)
			} else {
				fmt.Fprintf(&b, "  %-10s %s\n", d.Stage, d.Limit)
			}
		}
	}

	if len(r.ProverHist) > 0 {
		b.WriteString("prover latency histogram:\n")
		max := 0
		for _, h := range r.ProverHist {
			if h.Count > max {
				max = h.Count
			}
		}
		for _, h := range r.ProverHist {
			bar := strings.Repeat("#", scaleBar(h.Count, max, 40))
			fmt.Fprintf(&b, "  %-14s %6d %s\n", h.Label, h.Count, bar)
		}
	}

	if len(r.TopQueries) > 0 {
		b.WriteString("most expensive prover queries:\n")
		for _, q := range r.TopQueries {
			fmt.Fprintf(&b, "  %10v  %-5s verdict=%-5v size=%-5d %s\n",
				time.Duration(q.NS), q.Kind, q.Verdict, q.Size, q.Desc)
		}
	}
	return b.String()
}

func scaleBar(n, max, width int) int {
	if max <= 0 {
		return 0
	}
	w := n * width / max
	if w == 0 && n > 0 {
		w = 1
	}
	return w
}

func topProcs(procs []ProcCost, k int) []ProcCost {
	out := append([]ProcCost{}, procs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].NS > out[j].NS })
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func containsStr(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
