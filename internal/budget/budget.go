// Package budget centralizes deadline and resource-budget tracking for
// the SLAM pipeline. A single Tracker is threaded through every stage
// (prover, cube search, Bebop, Newton) carrying the run's
// context.Context and the explicit Limits, and collecting a structured
// record of every degradation: each point where a stage hit a limit and
// soundly weakened its result instead of failing.
//
// The soundness argument (PLDI 2001, §Soundness) is that every limit
// response in this codebase only ever *weakens* the abstraction:
//
//   - a prover query that times out answers "could not prove", which
//     shrinks F_V(φ) toward fewer cubes (an under-approximation stays an
//     under-approximation);
//   - an exhausted cube budget makes the remaining transfer functions
//     the trivially sound choose(*,*);
//   - a truncated Bebop fixpoint under-approximates the reachable sets,
//     so its verdict is reported as Unknown rather than Verified.
//
// Degradation therefore costs precision (spurious counterexamples,
// Unknown outcomes), never correctness.
//
// A nil *Tracker is valid everywhere and means "no limits": all queries
// run to their internal caps and no degradations are recorded. This
// mirrors the nil-safe *trace.Tracer pattern so that hot paths pay a
// single nil check when budgets are off.
package budget

import (
	"context"
	"sync"
	"time"

	"predabs/internal/trace"
)

// Canonical limit names, used in degradation events, run reports and CLI
// output. Keep in sync with the flag names in internal/obs.
const (
	// LimitDeadline is the whole-run wall-clock deadline (-timeout) or an
	// external context cancellation.
	LimitDeadline = "deadline"
	// LimitQueryTimeout is the per-prover-query wall-clock cap
	// (-query-timeout).
	LimitQueryTimeout = "query-timeout"
	// LimitCubeBudget is the per-procedure cube-search candidate cap
	// (-cube-budget).
	LimitCubeBudget = "cube-budget"
	// LimitBDDNodes is Bebop's BDD node-count ceiling (-bdd-max-nodes).
	LimitBDDNodes = "bdd-max-nodes"
	// LimitIterations is the CEGAR iteration cap (-maxiters).
	LimitIterations = "iterations"
	// LimitCondSize is Newton's path-condition size cap (internal).
	LimitCondSize = "cond-size"
	// LimitProverBudget is the prover's internal per-query leaf-check cap
	// (internal). Plain Valid/Unsat queries absorb it as "could not
	// prove", but a model-enumeration session that hits it has an
	// incomplete model set, so the abstraction engine must degrade the
	// procedure instead of trusting absence-of-model verdicts.
	LimitProverBudget = "prover-budget"
)

// Limits are the explicit resource budgets for one run. The zero value
// means "unlimited" in every dimension.
type Limits struct {
	// RunTimeout bounds the whole run's wall clock. It is enforced via
	// the context handed to New (the CLIs build a context.WithTimeout
	// from it); the field itself is carried for reporting.
	RunTimeout time.Duration
	// QueryTimeout bounds each uncached prover query's wall clock.
	QueryTimeout time.Duration
	// CubeBudget caps the prover-backed cube candidates per procedure.
	CubeBudget int
	// BDDMaxNodes caps Bebop's BDD node table during the fixpoint.
	BDDMaxNodes int
}

// Event records one class of degradation: a (stage, limit) pair that
// fired, with the detail of the first occurrence and a total count.
type Event struct {
	// Stage is the pipeline stage that degraded ("prover", "abstract",
	// "bebop", "newton", "slam").
	Stage string `json:"stage"`
	// Limit is the canonical limit name (Limit* constants).
	Limit string `json:"limit"`
	// Detail describes the first occurrence (a procedure name, a query
	// description, ...).
	Detail string `json:"detail,omitempty"`
	// Count is how many times this (stage, limit) pair fired.
	Count int `json:"count"`
}

// Tracker carries one run's context, limits and degradation log. Safe
// for concurrent use; a nil Tracker is valid and means "unlimited".
type Tracker struct {
	ctx    context.Context
	limits Limits
	tracer *trace.Tracer

	mu     sync.Mutex
	order  []string          // (stage, limit) keys in first-fired order
	events map[string]*Event // keyed by stage + "\x00" + limit
}

// New builds a Tracker for one run. ctx may be nil (treated as
// context.Background()); tracer may be nil.
func New(ctx context.Context, limits Limits, tracer *trace.Tracer) *Tracker {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Tracker{
		ctx:    ctx,
		limits: limits,
		tracer: tracer,
		events: map[string]*Event{},
	}
}

// Context returns the run context (context.Background() for a nil
// Tracker).
func (t *Tracker) Context() context.Context {
	if t == nil || t.ctx == nil {
		return context.Background()
	}
	return t.ctx
}

// Limits returns the run limits (the zero Limits for a nil Tracker).
func (t *Tracker) Limits() Limits {
	if t == nil {
		return Limits{}
	}
	return t.limits
}

// Cancelled reports whether the run deadline has passed or the context
// was cancelled. It is cheap enough for per-round checks but should not
// be called per prover leaf check (the prover batches it).
func (t *Tracker) Cancelled() bool {
	if t == nil || t.ctx == nil {
		return false
	}
	select {
	case <-t.ctx.Done():
		return true
	default:
		return false
	}
}

// Degrade records one degradation. The first occurrence of a
// (stage, limit) pair also emits a degrade/limit trace event; repeats
// only bump the count, so a run with thousands of query timeouts stays
// diagnosable without drowning the trace.
func (t *Tracker) Degrade(stage, limit, detail string) {
	if t == nil {
		return
	}
	key := stage + "\x00" + limit
	t.mu.Lock()
	ev := t.events[key]
	if ev == nil {
		ev = &Event{Stage: stage, Limit: limit, Detail: detail}
		t.events[key] = ev
		t.order = append(t.order, key)
	}
	ev.Count++
	first := ev.Count == 1
	t.mu.Unlock()
	if first {
		t.tracer.Degrade(stage, limit, detail)
	}
}

// Events snapshots the degradation log in first-fired order.
func (t *Tracker) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.order))
	for _, key := range t.order {
		out = append(out, *t.events[key])
	}
	return out
}

// First returns the first degradation recorded, if any — the limit a
// report should lead with.
func (t *Tracker) First() (Event, bool) {
	if t == nil {
		return Event{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.order) == 0 {
		return Event{}, false
	}
	return *t.events[t.order[0]], true
}
