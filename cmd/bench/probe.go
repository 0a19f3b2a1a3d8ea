package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"predabs/internal/form"
	"predabs/internal/prover"
	"predabs/internal/trace"
)

// probe is everything a traced run attaches from outside the library: a
// fresh library tracer (read back through Report), a timed Querier around
// a fresh prover, and the harness's own span recorder. A nil *probe is an
// untraced run; every method is a no-op on it.
type probe struct {
	tr     *trace.Tracer
	q      *timedQuerier
	spans  *spanRecorder
	sample layerSample
}

func newProbe(spans *spanRecorder) *probe {
	q := &timedQuerier{Prover: prover.New()}
	tr := trace.New(trace.Config{})
	q.Trace = tr
	return &probe{tr: tr, q: q, spans: spans}
}

// prover returns the Querier a run hands the library and the prover
// behind it, whose counters the run reads back.
func (p *probe) prover() (prover.Querier, *prover.Prover) {
	if p == nil {
		pv := prover.New()
		return pv, pv
	}
	return p.q, p.q.Prover
}

func (p *probe) tracer() *trace.Tracer {
	if p == nil {
		return nil
	}
	return p.tr
}

// call records one public library call as a span around fn.
func (p *probe) call(name string, fn func() error) error {
	if p == nil {
		return fn()
	}
	id := p.spans.begin(name, nil)
	err := fn()
	p.spans.end(id)
	return err
}

// timedQuerier times every Valid and Unsat call from outside the prover.
// It embeds *prover.Prover so that NewSession, the cache hooks and the
// counters stay visible to the library: without NewSession the models
// engine would silently fall back to cubes. The cube-search pool calls it
// from several goroutines at once.
type timedQuerier struct {
	*prover.Prover

	mu       sync.Mutex
	inflight int
	busyFrom time.Time
	callNS   time.Duration // summed over calls
	busyNS   time.Duration // wall time with at least one call in flight
}

func (q *timedQuerier) Valid(hyp, goal form.Formula) bool {
	t0 := q.enter()
	defer q.exit(t0)
	return q.Prover.Valid(hyp, goal)
}

func (q *timedQuerier) Unsat(f form.Formula) bool {
	t0 := q.enter()
	defer q.exit(t0)
	return q.Prover.Unsat(f)
}

func (q *timedQuerier) enter() time.Time {
	t0 := time.Now()
	q.mu.Lock()
	if q.inflight == 0 {
		q.busyFrom = t0
	}
	q.inflight++
	q.mu.Unlock()
	return t0
}

func (q *timedQuerier) exit(t0 time.Time) {
	t1 := time.Now()
	q.mu.Lock()
	q.inflight--
	q.callNS += t1.Sub(t0)
	if q.inflight == 0 {
		q.busyNS += t1.Sub(q.busyFrom)
	}
	q.mu.Unlock()
}

func (q *timedQuerier) totals() (call, busy time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.callNS, q.busyNS
}

// spanRecorder keeps the harness's spans in memory: one per run and one
// per public library call the run makes. The harness is single-threaded.
type spanRecorder struct {
	epoch time.Time
	spans []span
	open  []int
}

type span struct {
	name       string
	parent     int // -1 for a root
	start, end time.Duration
	args       map[string]any
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

func (r *spanRecorder) begin(name string, args map[string]any) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{name: name, parent: parent, start: time.Since(r.epoch), args: args})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

func (r *spanRecorder) end(id int) {
	r.spans[id].end = time.Since(r.epoch)
	r.open = r.open[:len(r.open)-1]
}

// selfTimes returns, for span ids[i], its duration minus the part of it
// that its child spans cover.
func (r *spanRecorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] = s.end - s.start
	}
	// Children of one parent never overlap (the harness is sequential),
	// so the covered part is the sum of their durations.
	for _, s := range r.spans {
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// writeChrome writes the spans as Chrome trace_event JSON, which
// Perfetto and chrome://tracing load directly.
func (r *spanRecorder) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := r.selfTimes()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		args := map[string]any{"self_us": micros(self[i])}
		for k, v := range s.args {
			args[k] = v
		}
		events[i] = event{Name: s.name, Cat: "bench", Ph: "X", TS: micros(s.start),
			Dur: micros(s.end - s.start), PID: 1, TID: 1, Args: args}
	}
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerSample is one traced run's cost split by layer.
type layerSample struct {
	wall time.Duration

	calls, cacheHits, sessions, sessionChecks, models, blocking, gaveUp int
	// solver is all decision-procedure time, sessions included;
	// querySolver only the part inside Valid/Unsat calls.
	solver, querySolver time.Duration
	callTime, busy      time.Duration

	abstract, cubeSearch     time.Duration
	cubesChecked, cubeRounds int

	bebop, bpParse          time.Duration
	bebopIters, maxBDDNodes int

	newton       time.Duration
	newtonRounds int

	slamIters, preds int

	frontend, cparse, alias time.Duration
}

// spanLayers maps the public calls the harness times to the layer each
// belongs to. slam.VerifySpec spans all layers; its split comes from the
// library's result and report instead.
var spanLayers = map[string]func(s *layerSample, d time.Duration){
	"cparse.Parse":         func(s *layerSample, d time.Duration) { s.cparse += d; s.frontend += d },
	"ctype.Check":          func(s *layerSample, d time.Duration) { s.frontend += d },
	"cnorm.Normalize":      func(s *layerSample, d time.Duration) { s.frontend += d },
	"cparse.ParsePredFile": func(s *layerSample, d time.Duration) { s.frontend += d },
	"alias.AnalyzeOpts":    func(s *layerSample, d time.Duration) { s.alias += d; s.frontend += d },
	"abstract.Abstract":    func(s *layerSample, d time.Duration) { s.abstract += d },
	"bebop.Check":          func(s *layerSample, d time.Duration) { s.bebop += d },
	"bp.Parse":             func(s *layerSample, d time.Duration) { s.bpParse += d },
}

// finish completes the run's sample from the spans recorded since
// spanFrom, the prover's counters, the timed Querier and the tracer's
// report.
func (p *probe) finish(wall time.Duration, spanFrom int) layerSample {
	s := p.sample
	s.wall = wall
	for _, sp := range p.spans.spans[spanFrom:] {
		if add := spanLayers[sp.name]; add != nil {
			add(&s, sp.end-sp.start)
		}
	}
	pv := p.q.Prover
	s.calls, s.cacheHits = pv.Calls(), pv.CacheHits()
	s.sessions, s.sessionChecks = pv.Sessions(), pv.SessionChecks()
	s.models, s.blocking, s.gaveUp = pv.ModelsExtracted(), pv.BlockingClauses(), pv.GaveUp()
	s.solver = pv.SolverTime()
	s.callTime, s.busy = p.q.totals()

	rep := p.tr.Report()
	s.querySolver = time.Duration(rep.SolverNS)
	s.cubeSearch = time.Duration(rep.StageNS["cube-search"])
	s.cubesChecked, s.cubeRounds = rep.CubesChecked, rep.CubeRounds
	s.bebopIters, s.maxBDDNodes = rep.BebopIterations, rep.MaxBDDNodes
	s.newtonRounds = len(rep.NewtonRounds)
	// Inside slam.VerifySpec the library times parsing and alias
	// analysis itself; elsewhere the harness's spans did.
	s.cparse += time.Duration(rep.StageNS["parse"])
	s.alias += time.Duration(rep.StageNS["alias"])
	return s
}
