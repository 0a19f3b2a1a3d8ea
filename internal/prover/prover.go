// Package prover implements the decision procedures backing C2bp's
// predicate abstraction, playing the role of Simplify and Vampyre in the
// paper: a validity checker for the quantifier-free combination of
// equality with uninterpreted functions (dereference, field selection,
// array indexing, address-of) and linear integer arithmetic, in the
// Nelson-Oppen style.
//
// Soundness contract: Valid and Unsat answer true only when the claim
// definitely holds; false means "could not prove", which predicate
// abstraction tolerates (the paper notes its provers are incomplete).
//
// A Prover is safe for concurrent use: results are memoized in a
// mutex-striped cache keyed by the canonical formula string (the paper's
// optimization 5), session theory-leaf verdicts in a second striped memo
// keyed by the interned literal sequence, and the statistics counters are
// atomic, so the parallel cube search in internal/abstract can share one
// instance across workers.
package prover

import (
	"hash/maphash"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"predabs/internal/budget"
	"predabs/internal/form"
	"predabs/internal/trace"
)

// Querier is the decision-procedure interface the abstraction stages
// (cube search, enforce, Newton) depend on. *Prover is the real
// implementation; internal/faultinject wraps one for chaos testing.
//
// Implementations must honor the soundness contract at the top of this
// package: a true answer means the claim definitely holds, a false
// answer means "could not prove" and is always safe to return.
type Querier interface {
	Valid(hyp, goal form.Formula) bool
	Unsat(f form.Formula) bool
}

// cacheShards stripes the query cache to keep lock contention low under
// the parallel cube search. Must be a power of two.
const cacheShards = 64

// cacheShard is one stripe of the memo table.
type cacheShard struct {
	mu sync.RWMutex
	m  map[string]bool
}

// Prover is a caching validity checker for the paper's logic fragment.
// The zero value is not ready; use New. All methods are safe for
// concurrent use, except that DisableCache must be set before the
// prover is shared between goroutines.
type Prover struct {
	// DisableCache turns the query cache off (for ablation benchmarks):
	// Valid, Unsat and Session.Check neither consult nor fill it. The
	// theory-leaf memo stays on; it cannot change a verdict. Set it before
	// issuing queries; it must not be flipped while other goroutines are
	// calling Valid/Unsat.
	DisableCache bool

	// Trace, when non-nil, receives one prover.query event per Valid/Unsat
	// call (including cache hits). Set it before sharing the prover between
	// goroutines; the tracer itself is concurrency-safe.
	Trace *trace.Tracer

	// QueryTimeout, when positive, bounds each uncached query's wall
	// clock. A query that exceeds it answers "could not prove" — sound
	// per the package contract — and the result is NOT cached (wall-clock
	// stops are environmental, not semantic). Set before sharing.
	QueryTimeout time.Duration

	// Budget, when non-nil, carries the run's cancellation context and
	// degradation log: a cancelled run makes every subsequent query answer
	// "could not prove" immediately. Set before sharing.
	Budget *budget.Tracker

	calls     atomic.Int64
	cacheHits atomic.Int64
	gaveUp    atomic.Int64
	timeouts  atomic.Int64
	cancels   atomic.Int64
	theoryNS  atomic.Int64

	sessions        atomic.Int64
	sessionChecks   atomic.Int64
	modelsExtracted atomic.Int64
	blockingClauses atomic.Int64

	searchNodes  atomic.Int64
	theoryLeaves atomic.Int64
	memoHits     atomic.Int64

	seed   maphash.Seed
	shards [cacheShards]cacheShard
	lits   litTable
	memo   [cacheShards]memoShard
}

var _ Querier = (*Prover)(nil)

// New returns a fresh prover with an empty cache.
func New() *Prover {
	p := &Prover{seed: maphash.MakeSeed()}
	for i := range p.shards {
		p.shards[i].m = map[string]bool{}
	}
	return p
}

// Calls reports the number of Valid/Unsat entry points taken — the
// paper's "thm. prover calls" column in Tables 1 and 2.
func (p *Prover) Calls() int { return int(p.calls.Load()) }

// CacheHits reports the number of queries answered from the memo cache.
func (p *Prover) CacheHits() int { return int(p.cacheHits.Load()) }

// GaveUp reports the number of queries abandoned on resource caps
// (answered conservatively: "could not prove"). It includes timeouts
// and cancellations.
func (p *Prover) GaveUp() int { return int(p.gaveUp.Load()) }

// Timeouts reports the number of queries abandoned on QueryTimeout.
func (p *Prover) Timeouts() int { return int(p.timeouts.Load()) }

// Cancels reports the number of queries abandoned because the run
// context was cancelled (deadline or external cancellation).
func (p *Prover) Cancels() int { return int(p.cancels.Load()) }

// SolverTime reports the cumulative wall-clock time spent inside the
// decision procedures (cache hits excluded). Under the parallel cube
// search this sums across workers, so it can exceed elapsed time.
func (p *Prover) SolverTime() time.Duration {
	return time.Duration(p.theoryNS.Load())
}

// Sessions reports the number of incremental sessions opened with
// NewSession.
func (p *Prover) Sessions() int { return int(p.sessions.Load()) }

// SessionChecks reports the number of Session.Check calls. Together
// with Calls it is the run's total query count: the model-enumeration
// engine's session checks replace the cube engine's Valid calls, so
// engine comparisons use Calls() + SessionChecks().
func (p *Prover) SessionChecks() int { return int(p.sessionChecks.Load()) }

// ModelsExtracted reports the number of models returned by
// Session.Check (one per satisfiable check).
func (p *Prover) ModelsExtracted() int { return int(p.modelsExtracted.Load()) }

// BlockingClauses reports the number of Session.Block assertions — the
// enumeration loop's iteration count across all sessions.
func (p *Prover) BlockingClauses() int { return int(p.blockingClauses.Load()) }

// SearchNodes reports the number of DPLL search nodes visited across
// all uncached queries and session checks.
func (p *Prover) SearchNodes() int { return int(p.searchNodes.Load()) }

// TheoryLeaves reports the number of theory-consistency checks at full
// search leaves (memo hits included): the leaf budget's unit.
func (p *Prover) TheoryLeaves() int { return int(p.theoryLeaves.Load()) }

// TheoryMemoHits reports how many theory leaves were answered from the
// prover-wide theory-leaf memo, which session checks consult.
func (p *Prover) TheoryMemoHits() int { return int(p.memoHits.Load()) }

// shard picks the cache stripe for a key.
func (p *Prover) shard(key string) *cacheShard {
	h := maphash.String(p.seed, key)
	return &p.shards[h&(cacheShards-1)]
}

// cacheGet looks a key up in the striped cache.
func (p *Prover) cacheGet(key string) (bool, bool) {
	s := p.shard(key)
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	return v, ok
}

// cachePut records a result. Two workers racing on the same key write
// the same deterministic answer, so last-write-wins is harmless.
func (p *Prover) cachePut(key string, v bool) {
	s := p.shard(key)
	s.mu.Lock()
	s.m[key] = v
	s.mu.Unlock()
}

// maxLeafChecks bounds the number of theory checks per query.
const maxLeafChecks = 50000

// queryDesc renders a cache key as a human-readable formula description
// for the trace ("hyp => goal" for validity keys, the formula itself for
// unsat keys). Only called when tracing is on.
func queryDesc(key string) string {
	body := key[2:] // strip the "V\x00" / "U\x00" tag
	if i := strings.IndexByte(body, 0); i >= 0 {
		return body[:i] + " => " + body[i+1:]
	}
	return body
}

// Valid reports whether hyp ⇒ goal is valid. This is the paper's prover
// interface for the cube search: F_V asks Valid(cube, φ) for every
// candidate cube (Section 4.1). Safe for concurrent use.
func (p *Prover) Valid(hyp, goal form.Formula) bool {
	key := "V\x00" + hyp.String() + "\x00" + goal.String()
	return p.decide("valid", key, hyp, goal)
}

// Unsat reports whether f is definitely unsatisfiable (used for the
// enforce invariant F_V(false) of Section 5.1 and Newton's path
// conditions). Safe for concurrent use.
func (p *Prover) Unsat(f form.Formula) bool {
	return p.decide("unsat", "U\x00"+f.String(), f, nil)
}

// decide answers one query — unsatisfiability of f ∧ ¬negated, where a
// nil negated stands for false — through the cache, the cancellation
// fast path and the budgeted search.
func (p *Prover) decide(kind, key string, f, negated form.Formula) bool {
	p.calls.Add(1)
	if !p.DisableCache {
		if v, ok := p.cacheGet(key); ok {
			p.cacheHits.Add(1)
			if p.Trace != nil {
				p.Trace.ProverQuery(kind, queryDesc(key), len(key), 0, v, true, false, 0, 0)
			}
			return v
		}
	}
	if p.cancelled() {
		if p.Trace != nil {
			p.Trace.ProverQuery(kind, queryDesc(key), len(key), 0, false, false, true, 0, 0)
		}
		return false
	}
	pr := newProgram()
	roots := []int32{pr.compile(f, false)}
	if negated != nil {
		roots = append(roots, pr.compile(negated, true))
	}
	s := newSearcher(p, pr)
	res, dur := p.search(key, s, roots, func() form.Formula {
		if negated == nil {
			return f
		}
		return form.MkAnd(f, form.MkNot(negated))
	})
	if p.Trace != nil {
		p.Trace.ProverQuery(kind, queryDesc(key), len(key), dur, res, false, s.gaveUp, s.nodes, s.leaves)
	}
	return res
}

// cancelled is the fast path of a run that is already cancelled: the
// query gives up without searching, and without poisoning the cache.
func (p *Prover) cancelled() bool {
	if !p.Budget.Cancelled() {
		return false
	}
	p.gaveUp.Add(1)
	p.cancels.Add(1)
	return true
}

// search runs one budgeted DPLL search of the conjunction of roots and
// does the bookkeeping every query shares: effort, the search hook, the
// give-up, timeout and cancel counters, solver time and the cache fill.
// query rebuilds the searched formula, for the hook only. It reports
// whether the search proved the conjunction unsatisfiable, and how long
// it took.
func (p *Prover) search(key string, s *searcher, roots []int32, query func() form.Formula) (unsat bool, dur time.Duration) {
	start := time.Now()
	s.st = p.newSatState(start)
	found := s.dfs(roots)
	p.searchNodes.Add(s.nodes)
	p.theoryLeaves.Add(s.leaves)
	p.memoHits.Add(s.memoHits)
	if searchHook != nil {
		searchHook(query(), s.tracked, s, found)
	}
	unsat = !found && !s.gaveUp
	if s.gaveUp {
		p.gaveUp.Add(1)
	}
	switch s.st.stop {
	case stopTimeout:
		p.timeouts.Add(1)
		p.Budget.Degrade("prover", budget.LimitQueryTimeout, queryDesc(key))
	case stopCancel:
		p.cancels.Add(1)
	}
	dur = time.Since(start)
	p.theoryNS.Add(int64(dur))
	// Leaf-budget exhaustion is deterministic for a given formula, so it
	// is cacheable like any other verdict. Wall-clock stops are
	// environmental — the same query could finish within the timeout on a
	// retry or a faster machine — so they are never memoized.
	if !p.DisableCache && s.st.stop == stopNone {
		p.cachePut(key, unsat)
	}
	return unsat, dur
}

// newSatState starts one search's limits: the leaf budget, the query
// timeout and the run's cancellation.
func (p *Prover) newSatState(start time.Time) satState {
	st := satState{budget: maxLeafChecks}
	if p.QueryTimeout > 0 {
		st.deadline = start.Add(p.QueryTimeout)
	}
	if p.Budget != nil {
		st.done = p.Budget.Context().Done()
	}
	return st
}

// searchHook, when non-nil, observes every finished search with the
// formula it decided, the session's tracked atoms (nil for Valid and
// Unsat) and whether a model was found (or, for Valid and Unsat, the
// search gave up). Tests set it to replay the corpus's queries through the
// reference solver; it must be set before queries start.
var searchHook func(q form.Formula, tracked []trackedAtom, s *searcher, found bool)

// lit is a theory literal after polarity resolution.
type lit struct {
	op   form.RelOp // Eq, Ne, Le or Lt
	x, y form.Term
}

func (l lit) String() string { return l.x.String() + " " + l.op.String() + " " + l.y.String() }

// litOf resolves an atom assignment into a normalized theory literal.
func litOf(c form.Cmp, val bool) lit {
	switch c.Op {
	case form.Eq:
		if val {
			return lit{form.Eq, c.X, c.Y}
		}
		return lit{form.Ne, c.X, c.Y}
	case form.Ne:
		if val {
			return lit{form.Ne, c.X, c.Y}
		}
		return lit{form.Eq, c.X, c.Y}
	case form.Lt:
		if val {
			return lit{form.Lt, c.X, c.Y}
		}
		return lit{form.Le, c.Y, c.X}
	case form.Le:
		if val {
			return lit{form.Le, c.X, c.Y}
		}
		return lit{form.Lt, c.Y, c.X}
	case form.Gt:
		if val {
			return lit{form.Lt, c.Y, c.X}
		}
		return lit{form.Le, c.X, c.Y}
	default: // Ge
		if val {
			return lit{form.Le, c.Y, c.X}
		}
		return lit{form.Lt, c.X, c.Y}
	}
}

// atomKey canonicalizes an atom so that equivalent comparisons (x<y,
// y>x, ¬(x≥y)) share a key. flip reports whether the atom is the negation
// of the canonical base.
func atomKey(c form.Cmp) (key string, flip bool) {
	xs, ys := c.X.String(), c.Y.String()
	switch c.Op {
	case form.Eq, form.Ne:
		if xs > ys {
			xs, ys = ys, xs
		}
		return xs + " == " + ys, c.Op == form.Ne
	case form.Le:
		return xs + " <= " + ys, false
	case form.Lt:
		return ys + " <= " + xs, true
	case form.Gt:
		return xs + " <= " + ys, true
	default: // Ge
		return ys + " <= " + xs, false
	}
}

// stopReason says why a search was abandoned mid-query.
type stopReason uint8

const (
	stopNone    stopReason = iota
	stopTimeout            // QueryTimeout elapsed
	stopCancel             // run context cancelled
)

// checkStride is how many search nodes run between wall-clock /
// cancellation polls. Polling at nodes rather than theory leaves
// matters: a propositionally hard skeleton can burn arbitrary time
// without ever reaching a leaf. A node evaluates the compiled formula,
// O(|f|) work, so a counter increment plus a rare time.Now is noise.
const checkStride = 16

// satState is one query's search state: the leaf-check budget plus the
// optional wall-clock deadline and run-cancellation channel. Per-query
// (not per-Prover) so that concurrent queries cannot interfere.
type satState struct {
	budget     int
	deadline   time.Time       // zero: no per-query cap
	done       <-chan struct{} // nil: no run context
	sinceCheck int
	stop       stopReason
}

// tick polls the wall-clock limits every checkStride search nodes.
func (st *satState) tick() {
	st.sinceCheck++
	if st.sinceCheck < checkStride || st.stop != stopNone {
		return
	}
	st.sinceCheck = 0
	if st.done != nil {
		select {
		case <-st.done:
			st.stop = stopCancel
			return
		default:
		}
	}
	if !st.deadline.IsZero() && time.Now().After(st.deadline) {
		st.stop = stopTimeout
	}
}

// --- Theory combination (Nelson-Oppen light) ---

// maxCombineIters bounds the CC ↔ LA equality-exchange loop.
const maxCombineIters = 6

// maxProbeVars bounds the quadratic equality probing.
const maxProbeVars = 14

// theoryConsistent decides whether a conjunction of literals is
// satisfiable modulo EUF + linear integer arithmetic. A false answer is
// definite; a true answer may be an over-approximation.
func theoryConsistent(lits []lit) bool {
	c := newCC()
	for _, l := range lits {
		switch l.op {
		case form.Eq:
			c.merge(l.x, l.y)
		case form.Ne:
			c.disequal(l.x, l.y)
		default:
			// Intern terms so their subterms participate in congruence.
			c.add(l.x)
			c.add(l.y)
			c.propagate()
		}
		if c.failed {
			return false
		}
	}

	la := newLA(c, lits)
	for iter := 0; iter < maxCombineIters; iter++ {
		la.build(c)
		feasible, precise := la.feasible(nil)
		if !feasible {
			return false
		}
		if !precise {
			return true // gave up: cannot prove inconsistency
		}
		// Disequalities refuted by arithmetic.
		for off := 0; off < len(la.neqs); off += la.w + 1 {
			if la.entailsZero(la.neqs[off : off+la.w+1]) {
				return false
			}
		}
		// Equality propagation LA → CC.
		if !la.propagateEqualities(c) {
			if c.failed {
				return false
			}
			return true // fixpoint
		}
		if c.failed {
			return false
		}
	}
	return true
}
