package prover

import (
	"strings"

	"predabs/internal/budget"
	"predabs/internal/form"
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

// Model is a satisfying assignment extracted from the DPLL core: a truth
// value for every atom branched on during the search, keyed by the
// prover's canonical atom key. Models are immutable snapshots; they stay
// valid after the session moves on or closes.
type Model struct {
	assign map[string]bool // canonical atom key -> truth of canonical base
}

// Eval evaluates a formula under the model's atom assignment. ok is
// false when the formula mentions an atom the model does not assign
// (an atom that was neither in the checked formula nor Tracked).
func (m *Model) Eval(f form.Formula) (val, ok bool) {
	switch f := f.(type) {
	case form.TrueF:
		return true, true
	case form.FalseF:
		return false, true
	case form.Cmp:
		key, flip := atomKey(f)
		v, has := m.assign[key]
		if !has {
			return false, false
		}
		return v != flip, true
	case form.Not:
		v, has := m.Eval(f.F)
		return !v, has
	case form.And:
		for _, g := range f.Fs {
			v, has := m.Eval(g)
			if !has {
				return false, false
			}
			if !v {
				return false, true
			}
		}
		return true, true
	case form.Or:
		for _, g := range f.Fs {
			v, has := m.Eval(g)
			if !has {
				return false, false
			}
			if v {
				return true, true
			}
		}
		return false, true
	}
	return false, false
}

// trackedAtom is one atom registered via Track: its canonical key and
// the representative comparison (in NNF, as first seen) that theory
// literals are built from.
type trackedAtom struct {
	key string
	occurrence
}

// conjunct is one top-level conjunct of a session's assertions,
// compiled once when asserted.
type conjunct struct {
	f    form.Formula // as asserted, for searchHook
	str  string       // canonical string, for the query-cache key
	root int32        // compiled root in the session's program
	// dup: an earlier conjunct has the same string, so the conjunction
	// (which MkAnd deduplicates) does not repeat it.
	dup bool
}

// Session is an incremental assertion set over a Prover: assert
// formulas and extract models from the DPLL core. The model-enumeration
// abstraction engine uses one session per blocking loop (assert the
// query once, then get-model / block / re-check).
//
// Each Assert or Block is compiled once into the session's program and
// kept with its canonical string; Check searches the conjunction of
// everything asserted so far. Assertions are never retracted.
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
	conj     []conjunct
	seen     map[string]bool // conjunct strings asserted so far
	hasFalse bool            // some conjunct is the constant false
	tracked  []trackedAtom
	keys     map[string]bool
	hits     int
	nodes    int64
	leaves   int64
	closed   bool
}

// NewSession opens an incremental session on the prover. Close it when
// done; sessions are cheap (no solver process, just a conjunct list).
func (p *Prover) NewSession() *Session {
	p.sessions.Add(1)
	return &Session{p: p, pr: newProgram(), seen: map[string]bool{}, keys: map[string]bool{}}
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
	switch f := f.(type) {
	case form.TrueF:
	case form.And:
		for _, g := range f.Fs {
			if _, ok := g.(form.TrueF); !ok {
				s.addConjunct(g)
			}
		}
	default:
		s.addConjunct(f)
	}
}

func (s *Session) addConjunct(g form.Formula) {
	if _, ok := g.(form.FalseF); ok {
		s.hasFalse = true
	}
	str := g.String()
	s.conj = append(s.conj, conjunct{f: g, str: str, root: s.pr.compile(g, false), dup: s.seen[str]})
	s.seen[str] = true
}

// cacheKey is the Unsat cache key of the asserted conjunction: "U\x00"
// followed by MkAnd(asserted...).String().
func (s *Session) cacheKey() string {
	if s.hasFalse {
		return "U\x00false"
	}
	var live []string
	n := 2
	for _, c := range s.conj {
		if !c.dup {
			live = append(live, c.str)
			n += len(c.str) + 6
		}
	}
	switch len(live) {
	case 0:
		return "U\x00true"
	case 1:
		return "U\x00" + live[0]
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString("U\x00")
	for i, str := range live {
		if i > 0 {
			b.WriteString(" && ")
		}
		b.WriteByte('(')
		b.WriteString(str)
		b.WriteByte(')')
	}
	return b.String()
}

// Track registers every atom of f for model extraction: Check keeps
// branching until all tracked atoms have truth values, so the returned
// model evaluates any formula over tracked atoms. Atoms are recorded in
// first-seen order, which (with the true-before-false branching order)
// makes the model sequence deterministic.
func (s *Session) Track(f form.Formula) {
	s.mustOpen()
	s.trackAtoms(form.NNF(f))
}

func (s *Session) trackAtoms(f form.Formula) {
	switch f := f.(type) {
	case form.Cmp:
		key, flip := atomKey(f)
		if !s.keys[key] {
			s.keys[key] = true
			s.tracked = append(s.tracked, trackedAtom{key: key, occurrence: occurrence{
				cmp: f, atom: s.pr.atom(key), flip: flip, lits: [2]int32{-1, -1}}})
		}
	case form.Not:
		s.trackAtoms(f.F)
	case form.And:
		for _, g := range f.Fs {
			s.trackAtoms(g)
		}
	case form.Or:
		for _, g := range f.Fs {
			s.trackAtoms(g)
		}
	}
}

// Check decides the conjunction of the session's assertions. It returns:
//
//	Unsat, nil, ""      — the conjunction is definitely unsatisfiable;
//	Sat, model, ""      — a model was found (covering every tracked atom);
//	Unknown, nil, limit — the search was abandoned; limit is the
//	                      canonical budget.Limit* name that fired.
//
// Check shares the Prover's cache under the Unsat keyspace: a cached
// "definitely unsat" answers without searching; any other cached value
// cannot carry a model, so the search runs. Definitive results are
// cached; wall-clock stops (timeout, cancellation) never are.
//
// The search is DPLL over the conjunction's boolean skeleton, then over
// any still-unassigned tracked atoms, with a theory-consistency check at
// each full leaf. The model is the first one in the deterministic branch
// order (formula atoms in discovery order, then tracked atoms in
// registration order; true before false).
func (s *Session) Check() (Verdict, *Model, string) {
	s.mustOpen()
	p := s.p
	p.sessionChecks.Add(1)
	key := s.cacheKey()
	if !p.DisableCache {
		if v, ok := p.cacheGet(key); ok && v {
			p.cacheHits.Add(1)
			s.hits++
			return Unsat, nil, ""
		}
	}
	if p.cancelled() {
		return Unknown, nil, budget.LimitDeadline
	}
	se := newSearcher(p, s.pr)
	se.models, se.tracked = true, s.tracked
	var roots []int32
	for _, c := range s.conj {
		if !c.dup {
			roots = append(roots, c.root)
		}
	}
	unsat, _ := p.search(key, se, roots, func() form.Formula {
		fs := make([]form.Formula, len(s.conj))
		for i, c := range s.conj {
			fs[i] = c.f
		}
		return form.MkAnd(fs...)
	})
	s.nodes += se.nodes
	s.leaves += se.leaves
	switch {
	case se.model != nil:
		p.modelsExtracted.Add(1)
		return Sat, se.model, ""
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

// Effort reports the search nodes and theory leaves this session's
// checks visited (they also count toward the prover's SearchNodes and
// TheoryLeaves). Trace spans carry them, as prover.query events do for
// Valid and Unsat.
func (s *Session) Effort() (nodes, leaves int64) { return s.nodes, s.leaves }

// Close ends the session. Further use panics. Models already extracted
// remain valid.
func (s *Session) Close() {
	s.closed = true
	s.pr, s.conj, s.seen, s.tracked, s.keys = nil, nil, nil, nil, nil
}

func (s *Session) mustOpen() {
	if s.closed {
		panic("prover: use of closed Session")
	}
}
