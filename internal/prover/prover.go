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
// Every comparison a Prover meets is compiled once, prover-wide, into its
// canonical atom and its theory literals over interned term ids
// (terms.go), so a theory leaf — congruence closure, then Fourier–Motzkin
// linear arithmetic — runs on integers in reused storage and renders no
// term.
//
// A Prover is safe for concurrent use: results are memoized in a
// mutex-striped cache keyed by the canonical formula string (the paper's
// optimization 5), session theory-leaf verdicts in a second striped memo
// keyed by the compiled literal sequence, the compiled table only grows
// under its own lock while searches read snapshots of it, and the
// statistics counters are atomic, so the parallel cube search in
// internal/abstract can share one instance across workers.
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
// (cube search, enforce, Newton) depend on. It is sealed: *Prover and
// the types that embed one satisfy it, so a Prover backs every Querier,
// and cube checks and sessions run on it directly. An embedding type
// may override Valid and Unsat; it must honor the soundness contract at
// the top of this package.
type Querier interface {
	Valid(hyp, goal form.Formula) bool
	Unsat(f form.Formula) bool
	backing() *Prover
}

func (p *Prover) backing() *Prover { return p }

// Backing returns the Prover behind q.
func Backing(q Querier) *Prover { return q.backing() }

// cacheShards stripes the query cache to keep lock contention low under
// the parallel cube search. Must be a power of two.
const cacheShards = 64

// cacheShard is one stripe of a striped table: the query cache or the
// theory-leaf memo.
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
	// call and Domain check (including cache hits). Set it before sharing the prover between
	// goroutines; the tracer itself is concurrency-safe.
	Trace *trace.Tracer

	// Fault, when non-nil, is asked first by every Valid, Unsat and Domain
	// check and every Session.Check, with the query's kind ("valid",
	// "unsat", "session") and its cache key. True injects a fault: the
	// query answers "could not prove" (a session check Unknown) and is
	// neither counted, cached nor traced. internal/faultinject sets it.
	// Set it before sharing the prover.
	Fault func(kind string, key []byte) bool

	// Budget, when non-nil, carries the run's cancellation context, its
	// limits and the degradation log: a cancelled run makes every
	// subsequent query answer "could not prove" immediately, and its
	// Limits().QueryTimeout, when positive, bounds each uncached query's
	// wall clock. A query that exceeds it answers "could not prove" —
	// sound per the package contract — and the result is NOT cached
	// (wall-clock stops are environmental, not semantic). Set before
	// sharing.
	Budget *budget.Tracker

	calls     atomic.Int64
	cacheHits atomic.Int64
	gaveUp    atomic.Int64
	timeouts  atomic.Int64
	cancels   atomic.Int64
	theoryNS  atomic.Int64
	// modelAnswers counts Domain checks a counter-model answered, and
	// modelEvals the goals evaluated under another goal's model.
	modelAnswers atomic.Int64
	modelEvals   atomic.Int64

	sessions        atomic.Int64
	sessionChecks   atomic.Int64
	modelsExtracted atomic.Int64
	blockingClauses atomic.Int64

	searchNodes     atomic.Int64
	theoryLeaves    atomic.Int64
	memoHits        atomic.Int64
	fmRuns          atomic.Int64
	eqProbes        atomic.Int64
	ccUnions        atomic.Int64
	fullProbeRounds atomic.Int64

	seed   maphash.Seed
	shards [cacheShards]cacheShard
	terms  *termTable
	memo   [cacheShards]cacheShard
}

var _ Querier = (*Prover)(nil)

// New returns a fresh prover with an empty cache.
func New() *Prover {
	p := &Prover{seed: maphash.MakeSeed(), terms: newTermTable()}
	for i := range p.shards {
		p.shards[i].m = map[string]bool{}
		p.memo[i].m = map[string]bool{}
	}
	return p
}

// Stats is a snapshot of a Prover's counters, the one list every
// statistics surface (c2bp and slam -stats, predabs.AbstractStats,
// slam.Result) carries.
type Stats struct {
	// ProverCalls is the number of Valid/Unsat entry points taken — the
	// paper's "thm. prover calls" column in Tables 1 and 2.
	ProverCalls int
	// CacheHits counts queries answered from the memo cache (the paper's
	// optimization 5).
	CacheHits int
	// ModelAnswers counts cube checks answered "not implied" (or
	// "satisfiable") by a counter-model an earlier check over the same
	// domain found, with no cache lookup and no search. Like a cache hit,
	// each is one of the ProverCalls.
	ModelAnswers int
	// ModelEvals counts the evaluations of a goal under a counter-model
	// another goal's check found, which decide whether the model joins
	// the goal's pool.
	ModelEvals int
	// ProverGaveUp counts queries abandoned on resource caps (answered
	// conservatively: "could not prove"). It includes timeouts and
	// cancellations.
	ProverGaveUp int
	// ProverTimeouts counts queries abandoned on the run's per-query
	// timeout (a subset of ProverGaveUp; their verdicts are not cached).
	ProverTimeouts int
	// ProverCancels counts queries abandoned because the run context was
	// cancelled (deadline or external cancellation).
	ProverCancels int

	// ProverSessions counts incremental sessions opened with NewSession
	// (zero under the cube engine).
	ProverSessions int
	// SessionChecks counts Session.Check calls. The model-enumeration
	// engine's session checks replace the cube engine's Valid calls, so
	// ProverCalls + SessionChecks is the run's total query count, the
	// number to compare across engines.
	SessionChecks int
	// ModelsExtracted counts models returned by Session.Check (one per
	// satisfiable check).
	ModelsExtracted int
	// BlockingClauses counts Session.Block assertions — the enumeration
	// loop's iteration count across all sessions.
	BlockingClauses int

	// SearchNodes and TheoryLeaves are the search effort over every
	// uncached query and session check: DPLL nodes visited and
	// theory-consistency checks at full leaves (memo hits included: the
	// leaf budget's unit). TheoryMemoHits counts the leaves answered from
	// the prover-wide theory-leaf memo, which session checks consult.
	SearchNodes    int
	TheoryLeaves   int
	TheoryMemoHits int
	// FMRuns, EqualityProbes and CCUnions are the theory effort of the
	// leaves actually checked (memo hits run none): Fourier–Motzkin
	// feasibility runs, entailed-equality probes (disequality refutations
	// and the LA → CC equality exchange, each up to two Fourier–Motzkin
	// runs) and congruence-closure class merges.
	FMRuns         int
	EqualityProbes int
	CCUnions       int
	// FullProbeRounds counts the Nelson–Oppen rounds whose feasible
	// linear system yielded no integer witness, so every equality and
	// disequality was probed rather than only those the witness leaves
	// open.
	FullProbeRounds int

	// SolverTime is the cumulative wall time inside the decision
	// procedures (cache hits excluded). Under the parallel cube search it
	// sums across workers, so it can exceed elapsed time.
	SolverTime time.Duration
}

// CacheMisses is the number of queries that reached the decision
// procedures: calls plus session checks, less cache hits and model
// answers.
func (s Stats) CacheMisses() int {
	return s.ProverCalls + s.SessionChecks - s.CacheHits - s.ModelAnswers
}

// Stats snapshots every counter. Each is loaded once; under concurrent
// queries the fields may come from slightly different instants.
func (p *Prover) Stats() Stats {
	return Stats{
		ProverCalls:     int(p.calls.Load()),
		CacheHits:       int(p.cacheHits.Load()),
		ModelAnswers:    int(p.modelAnswers.Load()),
		ModelEvals:      int(p.modelEvals.Load()),
		ProverGaveUp:    int(p.gaveUp.Load()),
		ProverTimeouts:  int(p.timeouts.Load()),
		ProverCancels:   int(p.cancels.Load()),
		ProverSessions:  int(p.sessions.Load()),
		SessionChecks:   int(p.sessionChecks.Load()),
		ModelsExtracted: int(p.modelsExtracted.Load()),
		BlockingClauses: int(p.blockingClauses.Load()),
		SearchNodes:     int(p.searchNodes.Load()),
		TheoryLeaves:    int(p.theoryLeaves.Load()),
		TheoryMemoHits:  int(p.memoHits.Load()),
		FMRuns:          int(p.fmRuns.Load()),
		EqualityProbes:  int(p.eqProbes.Load()),
		CCUnions:        int(p.ccUnions.Load()),
		FullProbeRounds: int(p.fullProbeRounds.Load()),
		SolverTime:      time.Duration(p.theoryNS.Load()),
	}
}

// Calls reports Stats().ProverCalls.
func (p *Prover) Calls() int { return int(p.calls.Load()) }

// CacheHits reports Stats().CacheHits.
func (p *Prover) CacheHits() int { return int(p.cacheHits.Load()) }

// ModelAnswers reports Stats().ModelAnswers.
func (p *Prover) ModelAnswers() int { return int(p.modelAnswers.Load()) }

// ModelEvals reports Stats().ModelEvals.
func (p *Prover) ModelEvals() int { return int(p.modelEvals.Load()) }

// GaveUp reports Stats().ProverGaveUp.
func (p *Prover) GaveUp() int { return int(p.gaveUp.Load()) }

// SolverTime reports Stats().SolverTime.
func (p *Prover) SolverTime() time.Duration { return time.Duration(p.theoryNS.Load()) }

// Sessions reports Stats().ProverSessions.
func (p *Prover) Sessions() int { return int(p.sessions.Load()) }

// SessionChecks reports Stats().SessionChecks.
func (p *Prover) SessionChecks() int { return int(p.sessionChecks.Load()) }

// ModelsExtracted reports Stats().ModelsExtracted.
func (p *Prover) ModelsExtracted() int { return int(p.modelsExtracted.Load()) }

// BlockingClauses reports Stats().BlockingClauses.
func (p *Prover) BlockingClauses() int { return int(p.blockingClauses.Load()) }

// get looks a key, as built in a searcher's buffer, up in one of the
// prover's striped tables: the query cache or the theory-leaf memo.
func (p *Prover) get(t *[cacheShards]cacheShard, key []byte) (bool, bool) {
	s := &t[maphash.Bytes(p.seed, key)&(cacheShards-1)]
	s.mu.RLock()
	v, ok := s.m[string(key)]
	s.mu.RUnlock()
	return v, ok
}

// put records a result in one of the striped tables. Two workers racing
// on the same key write the same deterministic answer, so last-write-wins
// is harmless.
func (p *Prover) put(t *[cacheShards]cacheShard, key string, v bool) {
	s := &t[maphash.String(p.seed, key)&(cacheShards-1)]
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
	s := getSearcher()
	b := append(append(s.keyBuf[:0], "V\x00"...), hyp.String()...)
	s.keyBuf = append(append(b, 0), goal.String()...)
	return p.ask("valid", s, func() {
		pr := newProgram(p.terms)
		s.roots = append(s.roots[:0], pr.compile(hyp, false), pr.compile(goal, true))
		s.reset(p, pr)
	}, func() form.Formula { return form.MkAnd(hyp, form.MkNot(goal)) })
}

// Unsat reports whether f is definitely unsatisfiable (used for the
// enforce invariant F_V(false) of Section 5.1 and Newton's path
// conditions). Safe for concurrent use.
func (p *Prover) Unsat(f form.Formula) bool {
	s := getSearcher()
	s.keyBuf = append(append(s.keyBuf[:0], "U\x00"...), f.String()...)
	return p.ask("unsat", s, func() {
		pr := newProgram(p.terms)
		s.roots = append(s.roots[:0], pr.compile(f, false))
		s.reset(p, pr)
	}, func() form.Formula { return f })
}

// ask answers one Valid, Unsat or Domain check whose cache key s.keyBuf
// holds: as injected by Fault, from the cache, as given up when the run
// is cancelled, or by a search of the conjunction of s.roots, which
// compile sets and readies s to search. query rebuilds the searched
// formula, for searchHook only. ask counts and traces every query but a
// faulted one, and releases s.
func (p *Prover) ask(kind string, s *searcher, compile func(), query func() form.Formula) bool {
	if p.Fault != nil && p.Fault(kind, s.keyBuf) {
		s.release()
		return false
	}
	return p.answer(kind, s, compile, query)
}

// answer is ask past the fault injection: it counts the query and
// answers it from the cache or by a search.
func (p *Prover) answer(kind string, s *searcher, compile func(), query func() form.Formula) bool {
	defer s.release()
	p.calls.Add(1)
	if !p.DisableCache {
		if v, ok := p.get(&p.shards, s.keyBuf); ok {
			p.cacheHits.Add(1)
			if p.Trace != nil {
				p.traceSettled(kind, string(s.keyBuf), v, true)
			}
			return v
		}
	}
	key := string(s.keyBuf)
	if p.cancelled() {
		if p.Trace != nil {
			p.traceSettled(kind, key, false, false)
		}
		return false
	}
	compile()
	res, dur := p.search(key, s, query)
	if p.Trace != nil {
		p.Trace.ProverQuery(kind, queryDesc(key), len(key), dur, res, false, s.gaveUp,
			trace.Effort{Nodes: s.nodes, Leaves: s.leaves, FMRuns: s.eff.fmRuns, EqProbes: s.eff.probes})
	}
	return res
}

// traceSettled traces a query answered without a search: from the cache,
// or given up because the run is cancelled.
func (p *Prover) traceSettled(kind, key string, verdict, hit bool) {
	p.Trace.ProverQuery(kind, queryDesc(key), len(key), 0, verdict, hit, !hit, trace.Effort{})
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

// search runs one budgeted DPLL search of the conjunction of s.roots and
// does the bookkeeping every query shares: effort, the search hook, the
// give-up, timeout and cancel counters, solver time and the cache fill.
// query rebuilds the searched formula, for the hook only. It reports
// whether the search proved the conjunction unsatisfiable, and how long
// it took.
func (p *Prover) search(key string, s *searcher, query func() form.Formula) (unsat bool, dur time.Duration) {
	start := time.Now()
	s.st = p.newSatState(start)
	found := s.dfs(s.roots)
	p.searchNodes.Add(s.nodes)
	p.theoryLeaves.Add(s.leaves)
	p.memoHits.Add(s.memoHits)
	p.fmRuns.Add(s.eff.fmRuns)
	p.eqProbes.Add(s.eff.probes)
	p.ccUnions.Add(s.eff.unions)
	p.fullProbeRounds.Add(s.eff.fullRounds)
	if searchHook != nil {
		var tracked []form.Formula
		if s.sess != nil {
			tracked = s.sess.tracked
		}
		searchHook(query(), tracked, s, found)
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
		p.put(&p.shards, key, unsat)
	}
	return unsat, dur
}

// newSatState starts one search's limits: the leaf budget, the query
// timeout and the run's cancellation.
func (p *Prover) newSatState(start time.Time) satState {
	st := satState{budget: maxLeafChecks}
	if p.Budget != nil {
		if d := p.Budget.Limits().QueryTimeout; d > 0 {
			st.deadline = start.Add(d)
		}
		st.done = p.Budget.Context().Done()
	}
	return st
}

// searchHook, when non-nil, observes every finished search with the
// formula it decided, the session's tracked formulas (nil outside
// sessions) and whether a model was found (or, outside sessions, whether
// the search gave up). Tests set it to replay the corpus's queries
// through the reference solver; it must be set before queries start.
var searchHook func(q form.Formula, tracked []form.Formula, s *searcher, found bool)

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
	stopTimeout            // the run's query timeout elapsed
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

// theoryEffort counts the work of the theory leaves a search checked.
type theoryEffort struct {
	fmRuns, probes, unions, fullRounds int64
}

// theory is one theory check's state: the congruence closure and the
// linear arithmetic, whose storage is reset rather than reallocated from
// check to check, and the scratch of the counter-model a consistent leaf
// may yield.
type theory struct {
	c  cc
	la laSystem
	// fixed: the check ended at the combination's fixpoint with an
	// integer witness, so the classes and the witness are final.
	fixed bool
	m     cmodel
}

// theoryPool hands each leaf a warmed theory state.
var theoryPool = sync.Pool{New: func() any { return new(theory) }}

// theoryConsistent decides whether a conjunction of compiled literals is
// satisfiable modulo EUF + linear integer arithmetic, adding the work it
// did to eff. A false answer is definite; a true answer may be an
// over-approximation.
func theoryConsistent(snap termSnap, ids []int32, eff *theoryEffort) bool {
	th := theoryPool.Get().(*theory)
	ok := th.check(snap, ids, eff)
	theoryPool.Put(th)
	return ok
}

func (th *theory) check(snap termSnap, ids []int32, eff *theoryEffort) bool {
	th.la.fmRuns, th.la.probes, th.la.fullRounds = 0, 0, 0
	th.fixed = false
	ok := th.assert(snap, ids) && th.arith(snap, ids)
	eff.unions += th.c.unions
	eff.fmRuns += th.la.fmRuns
	eff.probes += th.la.probes
	eff.fullRounds += th.la.fullRounds
	return ok
}

// assert runs the congruence closure over the literals, interning their
// terms in order. It reports false on a conflict.
func (th *theory) assert(snap termSnap, ids []int32) bool {
	c := &th.c
	c.reset(snap)
	for _, id := range ids {
		l := &snap.lits[id]
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
	return true
}

// arith runs the linear arithmetic and the LA → CC equality exchange
// over the asserted closure.
func (th *theory) arith(snap termSnap, ids []int32) bool {
	c, la := &th.c, &th.la
	la.init(c, snap, ids)
	for iter := 0; iter < maxCombineIters; iter++ {
		la.build(c)
		feasible, precise := la.feasible(nil)
		if !feasible {
			return false
		}
		if !precise {
			return true // gave up: cannot prove inconsistency
		}
		// Only what the witness leaves open is probed; without one, all.
		if la.witOK = la.witness(c); !la.witOK {
			la.fullRounds++
		}
		// Disequalities refuted by arithmetic.
		for off := 0; off < len(la.neqs); off += la.w + 1 {
			if row := la.neqs[off : off+la.w+1]; !la.separates(row) && la.entailsZero(row) {
				return false
			}
		}
		// Equality propagation LA → CC.
		if !la.propagateEqualities(c) {
			if c.failed {
				return false
			}
			th.fixed = la.witOK
			return true // fixpoint
		}
		if c.failed {
			return false
		}
	}
	return true
}
