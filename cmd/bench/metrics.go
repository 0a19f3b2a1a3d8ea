package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"predabs/internal/corpus"
)

// metricDef names a metric and its unit; BENCHMARK.json lists the same.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the tools sees, from untraced runs.
// The timings take each subject's fastest run and average over subjects
// geometrically. On a machine shared with other tenants, load from outside
// the process slows the median run by up to a third from one invocation
// to the next; the fastest run of a short subject finds a quiet moment
// more often than that of a long one, so the geometric mean, which weighs
// every subject alike, repeats best.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"subject_ms_geomean", "ms"},
	{"cpu_ms_geomean", "ms"},
	{"alloc_mb_per_run", "MB"},
}

// perLayer are the traced run's metrics. Layer time is reported as a
// share of run wall time (base: trace.run_ms_mean) so that a layer a
// workload never enters reads 0 rather than an empty time. Metrics in
// unit "count" are deterministic and must repeat exactly. The run.* and
// runtime.* metrics and the subject shares come from the invocation's
// untraced passes.
func perLayer() []metricDef {
	defs := []metricDef{
		{"run.pass_ms_best", "ms"},
		{"run.ms_p50", "ms"},
		{"run.ms_p90", "ms"},
		{"run.per_s", "1/s"},
		{"trace.run_ms_mean", "ms"},
		{"trace.overhead_frac", "ratio"},
		{"prover.queries", "count"},
		{"prover.cache_hit_frac", "ratio"},
		{"prover.solver_share", "ratio"},
		{"prover.call_share", "ratio"},
		{"prover.overhead_share", "ratio"},
		{"prover.sessions", "count"},
		{"prover.session_checks", "count"},
		{"prover.models_extracted", "count"},
		{"prover.blocking_clauses", "count"},
		{"prover.gave_up", "count"},
		{"abstract.share", "ratio"},
		{"abstract.self_share", "ratio"},
		{"abstract.cube_search_share", "ratio"},
		{"abstract.cubes_checked", "count"},
		{"abstract.cube_rounds", "count"},
		{"abstract.parallelism", "ratio"},
		{"bebop.share", "ratio"},
		{"bebop.iterations", "count"},
		{"bebop.max_bdd_nodes", "count"},
		{"bp.parse_share", "ratio"},
		{"newton.share", "ratio"},
		{"newton.rounds", "count"},
		{"slam.iterations", "count"},
		{"slam.predicates", "count"},
		{"frontend.share", "ratio"},
		{"cparse.share", "ratio"},
		{"alias.share", "ratio"},
		{"runtime.gc_cycles_per_run", "cycles"},
		{"runtime.peak_rss_mb", "MB"},
	}
	for _, p := range append(corpus.Table2(), corpus.Drivers()...) {
		defs = append(defs, metricDef{"subject." + p.Name + ".share", "ratio"})
	}
	return defs
}

// metric is one measured value with a note for the printed table.
type metric struct {
	metricDef
	value float64
	note  string
}

// metrics computes the end-to-end metrics of an untraced invocation, or
// the per-layer metrics of a traced one, in definition order.
func (m *measurement) metrics() []metric {
	var vals map[string]float64
	notes := map[string]string{}
	defs := endToEnd
	if len(m.samples) > 0 {
		defs = perLayer()
		vals = m.layerValues(notes)
	} else {
		vals = m.endToEndValues(notes)
	}
	out := make([]metric, len(defs))
	for i, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			panic("bench: metric " + d.name + " not computed")
		}
		out[i] = metric{metricDef: d, value: v, note: notes[d.name]}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// bestRuns returns, for each subject, its fastest untraced run and that
// run's wall time times the CPU time per wall time of all the subject's
// untraced runs, in ms. The CPU time of a single run is too coarse to
// use: the kernel brings the CPU time of threads running elsewhere (the
// garbage collector's, the cube-search pool's) up to date only at a
// scheduler tick, which is several times a bebop-check run.
func (m *measurement) bestRuns() (wall, cpu []float64) {
	n := len(m.subjects)
	wall = make([]float64, n)
	sumWall := make([]time.Duration, n)
	sumCPU := make([]time.Duration, n)
	for i := range wall {
		wall[i] = math.Inf(1)
	}
	for _, r := range m.untraced.runs {
		wall[r.subject] = math.Min(wall[r.subject], ms(r.wall))
		sumWall[r.subject] += r.wall
		sumCPU[r.subject] += r.cpu
	}
	cpu = make([]float64, n)
	for i := range cpu {
		cpu[i] = wall[i] * float64(sumCPU[i]) / float64(sumWall[i])
	}
	return wall, cpu
}

func (m *measurement) endToEndValues(notes map[string]string) map[string]float64 {
	u := m.untraced
	setups := make([]float64, len(m.setups))
	for i, d := range m.setups {
		setups[i] = d.Seconds()
	}
	wall, cpu := m.bestRuns()
	perSubject := fmt.Sprintf("%d subjects, best of %d runs each", len(m.subjects), len(u.runs)/len(m.subjects))
	notes["setup_s"] = fmt.Sprintf("median of %d set-ups", len(setups))
	notes["subject_ms_geomean"] = perSubject
	notes["cpu_ms_geomean"] = perSubject
	return map[string]float64{
		"setup_s":            median(setups),
		"subject_ms_geomean": geomean(wall),
		"cpu_ms_geomean":     geomean(cpu),
		"alloc_mb_per_run":   float64(u.alloc) / float64(len(u.runs)) / (1 << 20),
	}
}

func (m *measurement) layerValues(notes map[string]string) map[string]float64 {
	var t layerSample
	for _, s := range m.samples {
		t.wall += s.wall
		t.calls += s.calls
		t.cacheHits += s.cacheHits
		t.sessions += s.sessions
		t.sessionChecks += s.sessionChecks
		t.models += s.models
		t.blocking += s.blocking
		t.gaveUp += s.gaveUp
		t.solver += s.solver
		t.querySolver += s.querySolver
		t.callTime += s.callTime
		t.busy += s.busy
		t.abstract += s.abstract
		t.cubeSearch += s.cubeSearch
		t.cubesChecked += s.cubesChecked
		t.cubeRounds += s.cubeRounds
		t.bebop += s.bebop
		t.bpParse += s.bpParse
		t.bebopIters += s.bebopIters
		t.maxBDDNodes += s.maxBDDNodes
		t.newton += s.newton
		t.newtonRounds += s.newtonRounds
		t.slamIters += s.slamIters
		t.preds += s.preds
		t.frontend += s.frontend
		t.cparse += s.cparse
		t.alias += s.alias
	}
	runs := float64(len(m.samples))
	per := func(x int) float64 { return float64(x) / runs }
	share := func(d time.Duration) float64 { return float64(d) / float64(t.wall) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	queries := t.calls + t.sessionChecks
	// The abstraction's own time is what remains when every stretch with
	// a Valid or Unsat call in flight and the solver time of the models
	// engine's session checks are taken out. Newton's few calls are taken
	// out with them: seen from outside, a call does not tell who made it.
	absSelf := t.abstract - t.busy - (t.solver - t.querySolver)
	u, tr := m.untraced, m.traced
	vals := map[string]float64{
		"trace.run_ms_mean": ms(t.wall) / runs,
		// Whole passes on both sides, so the subject mix is the same.
		"trace.overhead_frac": ratio(tr.wall.Seconds()/float64(len(tr.runs)),
			u.wall.Seconds()/float64(len(u.runs))) - 1,
		"prover.queries":             per(queries),
		"prover.cache_hit_frac":      ratio(float64(t.cacheHits), float64(queries)),
		"prover.solver_share":        share(t.solver),
		"prover.call_share":          share(t.callTime),
		"prover.overhead_share":      share(t.callTime - t.querySolver),
		"prover.sessions":            per(t.sessions),
		"prover.session_checks":      per(t.sessionChecks),
		"prover.models_extracted":    per(t.models),
		"prover.blocking_clauses":    per(t.blocking),
		"prover.gave_up":             per(t.gaveUp),
		"abstract.share":             share(t.abstract),
		"abstract.self_share":        share(absSelf),
		"abstract.cube_search_share": share(t.cubeSearch),
		"abstract.cubes_checked":     per(t.cubesChecked),
		"abstract.cube_rounds":       per(t.cubeRounds),
		"abstract.parallelism":       ratio(float64(t.callTime), float64(t.cubeSearch)),
		"bebop.share":                share(t.bebop),
		"bebop.iterations":           per(t.bebopIters),
		"bebop.max_bdd_nodes":        per(t.maxBDDNodes),
		"bp.parse_share":             share(t.bpParse),
		"newton.share":               share(t.newton),
		"newton.rounds":              per(t.newtonRounds),
		"slam.iterations":            per(t.slamIters),
		"slam.predicates":            per(t.preds),
		"frontend.share":             share(t.frontend),
		"cparse.share":               share(t.cparse),
		"alias.share":                share(t.alias),
		"runtime.gc_cycles_per_run":  float64(u.gcRuns) / float64(len(u.runs)),
	}
	walls := make([]float64, len(u.runs))
	for i, r := range u.runs {
		walls[i] = ms(r.wall)
	}
	sort.Float64s(walls)
	tail, pct := tailIndex(len(walls))
	vals["run.ms_p50"] = median(walls)
	vals["run.ms_p90"] = walls[tail]
	vals["run.per_s"] = float64(len(u.runs)) / u.wall.Seconds()
	vals["runtime.peak_rss_mb"] = float64(m.maxRSSKB) / 1024
	notes["run.ms_p50"] = fmt.Sprintf("%d runs", len(walls))
	notes["run.ms_p90"] = fmt.Sprintf("p%.1f of %d runs", pct, len(walls))
	notes["trace.run_ms_mean"] = fmt.Sprintf("%d traced runs", len(m.samples))

	for _, p := range append(corpus.Table2(), corpus.Drivers()...) {
		vals["subject."+p.Name+".share"] = 0
	}
	best, _ := m.bestRuns()
	vals["run.pass_ms_best"] = sum(best)
	notes["run.pass_ms_best"] = fmt.Sprintf("fastest run of each of %d subjects, summed", len(best))
	for i, name := range m.subjects {
		vals["subject."+name+".share"] = best[i] / sum(best)
	}
	return vals
}
