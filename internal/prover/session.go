package prover

import (
	"predabs/internal/budget"
	"predabs/internal/form"
	"predabs/internal/trace"
)

// Verdict is the outcome of one Session.Check.
type Verdict int8

// Check outcomes. Unknown means the search was abandoned on a resource
// cap before either a model was found or unsatisfiability was proven;
// callers that enumerate models MUST treat it as "enumeration
// incomplete" and degrade, never as "no more models".
const (
	// Unknown: the check gave up (timeout, cancellation or leaf budget).
	Unknown Verdict = iota
	// Sat: a model of the asserted conjunction was found.
	Sat
	// Unsat: the asserted conjunction is definitely unsatisfiable.
	Unsat
)

// String renders the verdict for logs and tests.
func (v Verdict) String() string {
	switch v {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

// Session is an incremental assertion set over a Prover: assert
// formulas, track others, and read the tracked formulas' values at the
// models the DPLL core finds. The model-enumeration abstraction engine
// uses one session per blocking loop (assert the query once, then
// get-model / block / re-check).
//
// Each Assert or Block is compiled once into the session's program and
// kept with its canonical string, and each Track compiles its formula
// into the same program; Check searches the conjunction of everything
// asserted so far. Assertions are never retracted.
//
// A Session is NOT safe for concurrent use; it is designed for the
// single coordinating goroutine of the abstraction engine. The
// underlying Prover may be shared: Check consults and populates the
// same striped cache as Valid/Unsat (keyed exactly like Unsat of the
// asserted conjunction), with the same rule that wall-clock-stopped
// checks never populate the cache — a cached verdict must be a property
// of the formula, not of the machine's load at the time.
type Session struct {
	p        *Prover
	pr       *program
	parts    []conjPart     // the assertions' top-level conjuncts, compiled
	hasFalse bool           // some conjunct is the constant false
	tracked  []form.Formula // Track's formulas, in order
	roots    []int32        // their compiled roots
	atoms    []occurrence   // their atoms, each once, first seen first
	hits     int
	effort   trace.Effort
	closed   bool
}

// NewSession opens an incremental session on the prover. Close it when
// done; sessions are cheap (no solver process, just a conjunct list).
func (p *Prover) NewSession() *Session {
	p.sessions.Add(1)
	return &Session{p: p, pr: newProgram(p.terms)}
}

// Assert conjoins f onto the session's assertions.
func (s *Session) Assert(f form.Formula) {
	s.mustOpen()
	s.add(f)
}

// Block asserts a blocking clause: semantically identical to Assert,
// but counted separately (Prover.BlockingClauses) so the enumeration
// loop's progress is visible in -stats and reports.
func (s *Session) Block(f form.Formula) {
	s.mustOpen()
	s.p.blockingClauses.Add(1)
	s.add(f)
}

// add splits f into top-level conjuncts exactly as MkAnd flattens its
// arguments, and compiles each.
func (s *Session) add(f form.Formula) {
	from := len(s.parts)
	var isFalse bool
	s.parts, isFalse = appendConjuncts(s.parts, f)
	s.hasFalse = s.hasFalse || isFalse
	for i := from; i < len(s.parts); i++ {
		s.parts[i].root = s.pr.compile(s.parts[i].f, false)
	}
}

// key assembles in se.keyBuf the Unsat cache key of the asserted
// conjunction, "U\x00" followed by MkAnd(asserted...).String(), and
// keeps its distinct conjuncts in se.parts.
func (s *Session) key(se *searcher) []byte {
	se.parts, se.strs = se.parts[:0], se.strs[:0]
	se.keep(s.parts, 0, int32(len(s.parts)))
	return se.conjKey("U\x00", s.hasFalse)
}

// Track compiles f into the session as a tracked formula: Check keeps
// branching until every atom of every tracked formula has a truth value,
// and returns the tracked formulas' values. Atoms are registered in
// first-seen order, which (with the true-before-false branching order)
// makes the model sequence deterministic.
func (s *Session) Track(f form.Formula) {
	s.mustOpen()
	from := len(s.pr.occs)
	s.tracked = append(s.tracked, f)
	s.roots = append(s.roots, s.pr.compile(form.NNF(f), false))
next:
	for _, o := range s.pr.occs[from:] {
		for _, t := range s.atoms {
			if t.atom == o.atom {
				continue next
			}
		}
		s.atoms = append(s.atoms, o)
	}
}

// Check decides the conjunction of the session's assertions. It returns:
//
//	Unsat, nil, ""      — the conjunction is definitely unsatisfiable;
//	Sat, vals, ""       — a model was found; vals[i] is the value of the
//	                      i-th tracked formula in it;
//	Unknown, nil, limit — the search was abandoned, or Prover.Fault
//	                      injected a fault; limit is the canonical
//	                      budget.Limit* name that fired.
//
// Check shares the Prover's cache under the Unsat keyspace: a cached
// "definitely unsat" answers without searching; any other cached value
// cannot carry a valuation, so the search runs. Definitive results are
// cached; wall-clock stops (timeout, cancellation) never are.
//
// The search is DPLL over the conjunction's boolean skeleton, then over
// any still-unassigned tracked atoms, with a theory-consistency check at
// each full leaf. The model is the first one in the deterministic branch
// order (formula atoms in discovery order, then tracked atoms in
// registration order; true before false).
func (s *Session) Check() (Verdict, []bool, string) {
	s.mustOpen()
	p := s.p
	se := getSearcher()
	defer se.release()
	b := s.key(se)
	if p.Fault != nil && p.Fault("session", b) {
		return Unknown, nil, budget.LimitProverBudget
	}
	p.sessionChecks.Add(1)
	if !p.DisableCache {
		if v, ok := p.get(&p.shards, b); ok && v {
			p.cacheHits.Add(1)
			s.hits++
			return Unsat, nil, ""
		}
	}
	if p.cancelled() {
		return Unknown, nil, budget.LimitDeadline
	}
	key := string(b)
	se.roots = se.roots[:0]
	for _, i := range se.parts {
		se.roots = append(se.roots, s.parts[i].root)
	}
	se.reset(p, s.pr)
	se.sess = s
	unsat, _ := p.search(key, se, func() form.Formula {
		fs := make([]form.Formula, len(s.parts))
		for i, c := range s.parts {
			fs[i] = c.f
		}
		return form.MkAnd(fs...)
	})
	s.effort.Nodes += se.nodes
	s.effort.Leaves += se.leaves
	s.effort.FMRuns += se.eff.fmRuns
	s.effort.EqProbes += se.eff.probes
	switch {
	case se.val != nil:
		p.modelsExtracted.Add(1)
		return Sat, se.val, ""
	case unsat:
		return Unsat, nil, ""
	case se.st.stop == stopTimeout:
		return Unknown, nil, budget.LimitQueryTimeout
	case se.st.stop == stopCancel:
		return Unknown, nil, budget.LimitDeadline
	}
	return Unknown, nil, budget.LimitProverBudget
}

// CacheHits reports how many of this session's checks were answered
// from the prover's shared cache (they also count toward the prover's
// global CacheHits). Trace spans carry it so reports can reconcile
// cache misses across both query styles.
func (s *Session) CacheHits() int { return s.hits }

// Effort reports the search nodes, theory leaves, Fourier–Motzkin runs
// and equality probes of this session's checks (they also count toward
// the prover's Stats). Trace spans carry them, as prover.query events do
// for Valid and Unsat.
func (s *Session) Effort() trace.Effort { return s.effort }

// Close ends the session. Further use panics. Valuations already
// returned remain valid.
func (s *Session) Close() {
	s.closed = true
	s.pr, s.parts, s.tracked, s.roots, s.atoms = nil, nil, nil, nil, nil
}

func (s *Session) mustOpen() {
	if s.closed {
		panic("prover: use of closed Session")
	}
}
