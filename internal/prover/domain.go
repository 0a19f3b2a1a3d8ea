package prover

import (
	"sync"

	"predabs/internal/form"
)

// A cube search asks one question of many cubes: does the conjunction
// of some literals imply a goal, or is it unsatisfiable? Every cube of
// one search draws its literals from one domain — each predicate and its
// negation — and shares the goal. A Domain answers those checks against
// one compilation: each literal's canonical strings are rendered once,
// and each literal and each goal (negated) is compiled once, at the
// first cache miss that needs it, into one program that the cube-search
// workers share. A check assembles its cache key from the memoized
// strings and searches the precompiled roots: the cube's conjuncts, then
// the goal.
//
// The key is exactly Valid's or Unsat's key of the cube's conjunction
// (MkAnd of its literals), and separate conjunct roots search exactly
// the tree one And root does, so a check answers, counts, caches and
// traces exactly as that Valid or Unsat call would: all three take one
// miss path, Prover.ask.
//
// A Session keeps its assertions in the same conjunct list: conjParts
// split off by appendConjuncts, whose distinct strings keep and conjKey
// assemble into the same key.
//
// The domain also keeps every counter-model its failed checks found
// (model.go), and each Goal the pool of those that falsify it: a check
// whose every literal one of them makes true is answered "not implied"
// (or "satisfiable") with no key or search, and counted as a prover
// call. The models of one round of checks join the store only at
// EndRound, so a check's answer never depends on which worker ran which
// candidate.

// Lit is one signed literal of a cube over a Domain: predicate Pred
// itself when Pos is set, else its negation.
type Lit struct {
	Pred int
	Pos  bool
}

// Domain is the compiled literal domain of one cube search. It is safe
// for concurrent use.
type Domain struct {
	p    *Prover
	lits []domLit // positive literal of predicate i at 2i, negative at 2i+1
	// parts are the literals' top-level conjuncts; their roots are
	// compiled, and read, under mu.
	parts []conjPart

	// pools: the domain is small enough (at most 64 predicates) for its
	// goals to keep counter-model bitmasks.
	pools bool

	mu    sync.Mutex
	pr    *program // nil until the first miss
	goals []*Goal  // each canonical string once; "" for Unsat checks
	// The model store (model.go): models[:joined] in order, the rest
	// found by the round's checks so far; vals and rows are the models'
	// arena, roundLits the cubes of the round's models, and valNums the
	// distinct valuations of models[:joined], sorted.
	models    []storedModel
	joined    int
	vals      []modelVal
	rows      []tabEntry
	roundLits []Lit
	valNums   []valNum
}

// domLit is one literal: its formula and its conjuncts, parts[from:to].
type domLit struct {
	f        form.Formula
	from, to int32
	isFalse  bool // one of its conjuncts is the constant false
}

// Goal is a validity goal of a Domain's checks, compiled negated at its
// first miss or its first model evaluation, or — with no formula — the
// goal of its unsatisfiability checks. It keeps the pool of the
// domain's counter-models that falsify it.
type Goal struct {
	f    form.Formula // nil for Unsat checks
	str  string
	idx  int32 // creation order within the domain
	root int32 // -1 until compiled; guarded by the domain's mu
	// The pool (model.go): the valuations of the models its own checks
	// found, and of the others that falsify it, each once; has is the
	// set of their numbers in the domain, and seen counts the stored
	// models it has caught up on.
	own, cross []uint64
	has        []uint64
	seen       int
}

// NewDomain prepares cube checks on p over n predicates; lit returns
// predicate i and its negation.
func NewDomain(p *Prover, n int, lit func(i int) (pos, neg form.Formula)) *Domain {
	d := &Domain{p: p, lits: make([]domLit, 2*n), parts: make([]conjPart, 0, 2*n), pools: n <= 64}
	for i := 0; i < n; i++ {
		d.lits[2*i].f, d.lits[2*i+1].f = lit(i)
	}
	for k := range d.lits {
		l := &d.lits[k]
		l.from = int32(len(d.parts))
		d.parts, l.isFalse = appendConjuncts(d.parts, l.f)
		l.to = int32(len(d.parts))
	}
	return d
}

// Goal prepares f as a goal of the domain's validity checks, or, when f
// is nil, the goal of its unsatisfiability checks, caught up on the
// domain's counter-models. A goal is made once per canonical string, so
// the checks of every search that asks the same goal of the domain share
// its compilation and its pool. Call it when no check of the domain is
// running.
func (d *Domain) Goal(f form.Formula) *Goal {
	str := ""
	if f != nil {
		str = f.String()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var g *Goal
	for _, h := range d.goals {
		if h.str == str {
			g = h
			break
		}
	}
	if g == nil {
		g = &Goal{f: f, str: str, idx: int32(len(d.goals)), root: -1}
		d.goals = append(d.goals, g)
	}
	d.catchUp(g)
	return g
}

// Valid reports whether the cube's conjunction implies g: the answer
// Valid(MkAnd(cube's literals...), g) gives.
func (d *Domain) Valid(cube []Lit, g *Goal) bool {
	return d.check("valid", cube, g)
}

// Unsat reports whether the cube's conjunction is unsatisfiable: the
// answer Unsat(MkAnd(cube's literals...)) gives. g, when not nil, is the
// goal made by Goal(nil), whose pool answers the checks and whose checks'
// counter-models the domain keeps.
func (d *Domain) Unsat(cube []Lit, g *Goal) bool {
	return d.check("unsat", cube, g)
}

// Key returns the query-cache key of the check Valid(cube, g) makes, or
// Unsat(cube) when g is nil or has no formula.
func (d *Domain) Key(cube []Lit, g *Goal) string {
	s := getSearcher()
	defer s.release()
	d.key(s, cube, g)
	return string(s.keyBuf)
}

// conj is the cube's conjunction as a formula.
func (d *Domain) conj(cube []Lit) form.Formula {
	fs := make([]form.Formula, len(cube))
	for i, l := range cube {
		fs[i] = d.lit(l).f
	}
	return form.MkAnd(fs...)
}

func (d *Domain) lit(l Lit) *domLit {
	if l.Pos {
		return &d.lits[2*l.Pred]
	}
	return &d.lits[2*l.Pred+1]
}

// key assembles the check's cache key in s.keyBuf and keeps the cube's
// distinct conjuncts in s.parts, in MkAnd's order.
func (d *Domain) key(s *searcher, cube []Lit, g *Goal) {
	s.parts, s.strs = s.parts[:0], s.strs[:0]
	hasFalse := false
	for _, l := range cube {
		dl := d.lit(l)
		hasFalse = hasFalse || dl.isFalse
		s.keep(d.parts, dl.from, dl.to)
	}
	if g == nil || g.f == nil {
		s.conjKey("U\x00", hasFalse)
		return
	}
	s.keyBuf = append(append(s.conjKey("V\x00", hasFalse), 0), g.str...)
}

// check answers one validity or unsat check of the cube: as injected
// by Fault, which is asked first, from g's pool, which is consulted
// before the key is built, or through the one miss path, where a
// consistent leaf of its search stores a counter-model in the domain.
// With neither Fault nor Trace set, a pool hit takes no searcher.
func (d *Domain) check(kind string, cube []Lit, g *Goal) bool {
	p := d.p
	pooled := g != nil && d.pools
	plain := p.Fault == nil && p.Trace == nil
	if pooled && plain && g.covers(cube) {
		p.calls.Add(1)
		p.modelAnswers.Add(1)
		return false
	}
	s := getSearcher()
	keyed := p.Fault != nil
	if keyed {
		d.key(s, cube, g)
		if p.Fault(kind, s.keyBuf) {
			s.release()
			return false
		}
	}
	if pooled && !plain && g.covers(cube) {
		p.calls.Add(1)
		p.modelAnswers.Add(1)
		if p.Trace != nil {
			if !keyed {
				d.key(s, cube, g)
			}
			p.Trace.ProverModelAnswer(kind, queryDesc(string(s.keyBuf)), len(s.keyBuf))
		}
		s.release()
		return false
	}
	if !keyed {
		d.key(s, cube, g)
	}
	if pooled {
		s.dom, s.goal, s.cube = d, g, cube
	}
	return p.answer(kind, s, func() { d.compile(s, g) }, func() form.Formula {
		f := d.conj(cube)
		if g == nil || g.f == nil {
			return f
		}
		return form.MkAnd(f, form.MkNot(g.f))
	})
}

// compile compiles whatever of s.parts and g is not compiled yet, sets
// s.roots to the check's roots (the conjuncts in order, then the negated
// goal) and readies s to search the domain's program. The program only
// grows, and a search reads only the nodes that existed when it started,
// so the workers share it.
func (d *Domain) compile(s *searcher, g *Goal) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.pr == nil {
		d.pr = newProgram(d.p.terms)
		if d.pools {
			// A counter-model values every literal of the domain.
			for i := range d.parts {
				d.parts[i].root = d.pr.compile(d.parts[i].f, false)
			}
		}
	}
	roots := s.roots[:0]
	for _, i := range s.parts {
		part := &d.parts[i]
		if part.root < 0 {
			part.root = d.pr.compile(part.f, false)
		}
		roots = append(roots, part.root)
	}
	if g != nil && g.f != nil {
		if g.root < 0 {
			g.root = d.pr.compile(g.f, true)
		}
		roots = append(roots, g.root)
	}
	s.roots = roots
	s.reset(d.p, d.pr)
}

// conjPart is one top-level conjunct of a Domain literal or a Session
// assertion: its formula, its canonical string and its compiled root.
type conjPart struct {
	f    form.Formula
	str  string
	root int32 // -1 until compiled
}

// appendConjuncts appends f's top-level conjuncts to parts, uncompiled,
// exactly as MkAnd flattens its arguments: a true conjunct is dropped,
// and isFalse reports a false one.
func appendConjuncts(parts []conjPart, f form.Formula) (_ []conjPart, isFalse bool) {
	one := [1]form.Formula{f}
	fs := one[:]
	if a, ok := f.(form.And); ok {
		fs = a.Fs
	}
	for _, g := range fs {
		switch g.(type) {
		case form.TrueF:
			continue
		case form.FalseF:
			isFalse = true
		}
		parts = append(parts, conjPart{f: g, str: g.String(), root: -1})
	}
	return parts, isFalse
}

// keep adds the conjuncts of parts[from:to] that MkAnd keeps to s's
// scratch: each string once, at its first occurrence. s.parts gets their
// indices and s.strs their strings.
func (s *searcher) keep(parts []conjPart, from, to int32) {
next:
	for i := from; i < to; i++ {
		str := parts[i].str
		for _, seen := range s.strs {
			if seen == str {
				continue next
			}
		}
		s.parts = append(s.parts, i)
		s.strs = append(s.strs, str)
	}
}

// conjKey writes tag, then MkAnd(conjuncts...).String() of the kept
// conjuncts, to s.keyBuf and returns it; hasFalse reports that one of
// them is the constant false.
func (s *searcher) conjKey(tag string, hasFalse bool) []byte {
	b := append(s.keyBuf[:0], tag...)
	switch {
	case hasFalse:
		b = append(b, "false"...)
	case len(s.strs) == 0:
		b = append(b, "true"...)
	case len(s.strs) == 1:
		b = append(b, s.strs[0]...)
	default:
		for i, str := range s.strs {
			if i > 0 {
				b = append(b, " && "...)
			}
			b = append(append(append(b, '('), str...), ')')
		}
	}
	s.keyBuf = b
	return b
}
