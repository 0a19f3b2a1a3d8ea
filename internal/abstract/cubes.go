package abstract

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"predabs/internal/bp"
	"predabs/internal/form"
	"predabs/internal/trace"
)

// Pred pairs a boolean-variable name with the C predicate it stands for.
// Construct predicates with NewPred; the zero value is still safe to use
// (Neg falls back to recomputing) but loses the negation memoization.
type Pred struct {
	// Name is the boolean program variable name (the predicate's source
	// text, e.g. "curr->val > v").
	Name string
	// F is the predicate as a formula.
	F form.Formula
	// neg lazily caches NNF(¬F). It is a pointer cell so the value-type
	// Pred can memoize across copies, and a sync.Once so concurrent cube
	// workers can share it safely.
	neg *negCell
}

// negCell memoizes a predicate's negation in NNF.
type negCell struct {
	once sync.Once
	f    form.Formula
}

// NewPred builds a predicate entry with a memoization cell for its
// negation (computed lazily on first use of Neg).
func NewPred(name string, f form.Formula) Pred {
	return Pred{Name: name, F: f, neg: &negCell{}}
}

// Neg returns NNF(¬F). For predicates built with NewPred the result is
// computed once and cached (safely under concurrent use); a zero-value
// Pred recomputes on every call, which is correct but slow — prefer
// NewPred.
func (p Pred) Neg() form.Formula {
	if p.neg == nil {
		return form.NNF(form.MkNot(p.F))
	}
	p.neg.once.Do(func() { p.neg.f = form.NNF(form.MkNot(p.F)) })
	return p.neg.f
}

// literal is one signed predicate occurrence in a cube.
type literal struct {
	idx int
	pos bool
}

// cubeVerdict classifies one candidate cube after its prover checks.
type cubeVerdict int8

const (
	// verdictNone: the cube neither implies the goal nor its negation.
	verdictNone cubeVerdict = iota
	// verdictImplicant: the cube implies the goal (kept as a disjunct).
	verdictImplicant
	// verdictContradiction: the cube implies ¬goal (pruned from longer
	// rounds: no consistent superset can imply the goal).
	verdictContradiction
)

// jobs resolves the worker-pool width for the parallel cube search
// (Options.Jobs; <= 0 means GOMAXPROCS).
func (ab *Abstractor) jobs() int {
	if ab.opts.Jobs > 0 {
		return ab.opts.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// minParallelRound is the smallest round worth fanning out: spawning
// workers for a handful of cubes costs more than the prover calls save.
const minParallelRound = 4

// checkRound evaluates check(i) for i in [0, n) on a bounded worker
// pool. Workers pull indices from a shared atomic counter; callers store
// per-index results, so output order is independent of scheduling. With
// jobs <= 1 (or a tiny round) it degenerates to the sequential scan,
// prover-call-for-prover-call identical to the pre-parallel code.
//
// When a tracer is active, each parallel worker's participation in the
// round is emitted as a cube.worker span on its own lane (Chrome tid
// w+1), so the workers render as parallel rows in Perfetto.
func checkRound(tr *trace.Tracer, n, jobs int, check func(i int)) {
	if jobs > n {
		jobs = n
	}
	if n < minParallelRound {
		jobs = 1
	}
	if jobs <= 1 {
		for i := 0; i < n; i++ {
			check(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sp := tr.BeginLane(w+1, "cube", "worker")
			done := 0
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					sp.End(trace.Int("cubes", done))
					return
				}
				check(i)
				done++
			}
		}(w)
	}
	wg.Wait()
}

// enumerateCubes generates every signed cube of exactly size literals
// over predicate indices [0, n), in the canonical order (ascending
// indices; positive literal before negative at each position), keeping
// those that pass the filter. This order is the contract that makes the
// parallel search deterministic: rounds are merged back in it.
func enumerateCubes(n, size int, keep func([]literal) bool) [][]literal {
	var out [][]literal
	cube := make([]literal, 0, size)
	var rec func(start, need int)
	rec = func(start, need int) {
		if need == 0 {
			if keep(cube) {
				out = append(out, append([]literal(nil), cube...))
			}
			return
		}
		for i := start; i <= n-need; i++ {
			for _, pos := range []bool{true, false} {
				cube = append(cube, literal{idx: i, pos: pos})
				rec(i+1, need-1)
				cube = cube[:len(cube)-1]
			}
		}
	}
	rec(0, size)
	return out
}

// fv computes F_V(phi): the largest disjunction of cubes over preds that
// implies phi (Section 4.1), as a boolean-program expression.
//
// The cube space is enumerated in sized rounds (Section 5.2,
// optimization 1) so pruning sees short implicants first, yielding prime
// implicants only. Within one round the candidate cubes are checked
// against the prover on a bounded worker pool (Options.Jobs wide): the
// superset pruning can never fire between two cubes of the same size
// (equal-size containment means equality, and enumeration never repeats
// a cube), so the recorded implicant/contradiction sets only change at
// round boundaries and the round's checks are order-independent. Results
// are merged back in canonical enumeration order, making the output
// byte-identical to the sequential scan for any worker count.
func (ab *Abstractor) fv(fn string, preds []Pred, phi form.Formula) bp.Expr {
	switch phi.(type) {
	case form.TrueF:
		return bp.Const{Val: true}
	case form.FalseF:
		return bp.Const{Val: false}
	}

	// Optimization 4 (syntactic heuristics): an exact predicate or negated
	// predicate match needs no prover calls.
	if ab.opts.SyntacticHeuristics {
		phiN := form.NNF(phi)
		for _, p := range preds {
			if form.FormulaEq(p.F, phi) || form.FormulaEq(form.NNF(p.F), phiN) {
				return bp.Ref{Name: p.Name}
			}
			if form.FormulaEq(p.Neg(), phiN) {
				return bp.Not{X: bp.Ref{Name: p.Name}}
			}
		}
	}

	// Optional precision tradeoff: distribute F through ∧ (lossless) and ∨
	// (lossy), operating on atomic pieces.
	if ab.opts.FOnAtoms {
		switch phi := phi.(type) {
		case form.And:
			out := bp.Expr(bp.Const{Val: true})
			for _, g := range phi.Fs {
				out = bp.MkAnd(out, ab.fv(fn, preds, g))
			}
			return out
		case form.Or:
			out := bp.Expr(bp.Const{Val: false})
			for _, g := range phi.Fs {
				out = bp.MkOr(out, ab.fv(fn, preds, g))
			}
			return out
		}
	}

	// Degraded fallback: once the procedure's cube budget is spent or the
	// run deadline has passed, F_V answers its weakest sound value. false
	// under-approximates every φ (Section 4.1 admits any
	// under-approximation), so assignments become choose(*,*) havoc,
	// assumes become assume(true), and asserts may report spurious
	// violations — precision is lost, soundness is not.
	if ab.degraded() {
		return bp.Const{Val: false}
	}

	// Everything below is prover-backed cube search; time it as one stage.
	searchStart := time.Now()
	searchSpan := ab.opts.Tracer.Begin("cube", "search")
	defer func() {
		ab.Stats.CubeSearchTime += time.Since(searchStart)
		searchSpan.End()
	}()

	// Optimization 3: cone of influence. The cone is purely syntactic, so
	// computing it before the degenerate checks costs no queries, and the
	// model engine's sessions track exactly the cube domain's atoms.
	domain := preds
	if ab.opts.ConeOfInfluence {
		domain = ab.cone(fn, preds, phi)
	}

	// Engine dispatch: everything above is shared, and so are the rounds
	// below; the engines differ only in how a candidate gets its verdict.
	classifierFor := ab.fvQueries
	if ab.useModels() {
		classifierFor = ab.fvModels
	}
	classify, early := classifierFor(domain, phi)
	if early != nil {
		return early
	}
	return bp.OrAll(ab.rounds(domain, verdictImplicant, nil, classify))
}

// fvQueries is the cube engine's F_V classifier: Valid(cube, φ), then
// Valid(cube, ¬φ), per candidate on the worker pool. It first answers
// the degenerate goals early: a valid φ needs no cubes at all, and an
// unsatisfiable φ has none.
func (ab *Abstractor) fvQueries(domain []Pred, phi form.Formula) (classifier, bp.Expr) {
	if ab.pv.Valid(form.TrueF{}, phi) {
		return nil, bp.Const{Val: true}
	}
	if ab.pv.Valid(phi, form.FalseF{}) {
		return nil, bp.Const{Val: false}
	}
	notPhi := form.NNF(form.MkNot(phi))
	return func(cands [][]literal, verdicts []cubeVerdict) {
		checkRound(ab.opts.Tracer, len(cands), ab.jobs(), func(i int) {
			cubeF := cubeFormula(domain, cands[i])
			if ab.pv.Valid(cubeF, phi) {
				verdicts[i] = verdictImplicant
			} else if ab.pv.Valid(cubeF, notPhi) {
				verdicts[i] = verdictContradiction
			}
		})
	}, nil
}

// classifier assigns a verdict to each candidate of one round: one
// prover query per cube for the cube engine, model membership for the
// enumeration engine.
type classifier func(cands [][]literal, verdicts []cubeVerdict)

// maxCubeLen is the longest cube the search enumerates over a domain of
// n predicates (Options.MaxCubeLen; <= 0 means no bound).
func (ab *Abstractor) maxCubeLen(n int) int {
	if m := ab.opts.MaxCubeLen; m > 0 && m < n {
		return m
	}
	return n
}

// rounds is the sized-round cube search behind both F_V and the enforce
// invariant ¬F_V(false), shared by both engines: cubes by increasing
// length (Section 5.2, optimization 1), pruning every superset of a cube
// that already got a verdict — a superset of an implicant is redundant,
// and a superset of a cube that implies ¬goal can never imply the goal
// consistently — then the per-procedure cube budget and the merge in
// canonical order. keep, when non-nil, filters the candidates that
// survive pruning. It returns the cubes whose verdict is want, as
// boolean-program expressions. Because candidate generation, pruning and
// merge live here, the engines produce byte-identical disjunct lists
// whenever their classifiers agree.
func (ab *Abstractor) rounds(domain []Pred, want cubeVerdict, keep func([]literal) bool, classify classifier) []bp.Expr {
	var decided [][]literal
	var disjuncts []bp.Expr
	for size := 1; size <= ab.maxCubeLen(len(domain)); size++ {
		// A mid-search limit keeps the cubes found so far: each one
		// individually has its verdict, so the partial result is sound.
		if ab.degraded() {
			break
		}
		cands := enumerateCubes(len(domain), size, func(cube []literal) bool {
			return !supersetOfAny(cube, decided) && (keep == nil || keep(cube))
		})
		cands = ab.takeCubes(cands)
		if len(cands) == 0 {
			continue
		}
		ab.Stats.CubesChecked += len(cands)
		ab.Stats.CubeRounds++
		roundSpan := ab.opts.Tracer.Begin("cube", "round")
		verdicts := make([]cubeVerdict, len(cands))
		classify(cands, verdicts)
		roundSpan.End(trace.Int("len", size), trace.Int("candidates", len(cands)))
		for i, v := range verdicts {
			if v != verdictNone {
				decided = append(decided, cands[i])
			}
			if v == want {
				disjuncts = append(disjuncts, cubeExpr(domain, cands[i]))
			}
		}
	}
	return disjuncts
}

// gv computes G_V(phi) = ¬F_V(¬phi): the strongest expressible formula
// implied by phi (Section 4.1). It inherits fv's parallelism and
// determinism guarantees.
func (ab *Abstractor) gv(fn string, preds []Pred, phi form.Formula) bp.Expr {
	inner := ab.fv(fn, preds, form.NNF(form.MkNot(phi)))
	return bpNot(inner)
}

func bpNot(e bp.Expr) bp.Expr { return bp.MkNot(e) }

// cubeFormula conjoins the cube's literals as a formula.
func cubeFormula(domain []Pred, cube []literal) form.Formula {
	fs := make([]form.Formula, len(cube))
	for i, l := range cube {
		if l.pos {
			fs[i] = domain[l.idx].F
		} else {
			fs[i] = domain[l.idx].Neg()
		}
	}
	return form.MkAnd(fs...)
}

// cubeExpr renders the cube as a boolean-program expression.
func cubeExpr(domain []Pred, cube []literal) bp.Expr {
	out := bp.Expr(bp.Const{Val: true})
	for _, l := range cube {
		var lit bp.Expr = bp.Ref{Name: domain[l.idx].Name}
		if !l.pos {
			lit = bp.Not{X: lit}
		}
		out = bp.MkAnd(out, lit)
	}
	return out
}

// supersetOfAny reports whether cube contains some recorded cube as a
// (signed) subset.
func supersetOfAny(cube []literal, recorded [][]literal) bool {
	for _, rec := range recorded {
		if containsAll(cube, rec) {
			return true
		}
	}
	return false
}

func containsAll(cube, sub []literal) bool {
	for _, l := range sub {
		found := false
		for _, c := range cube {
			if c == l {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// cone restricts the predicate domain to those that can possibly be part
// of a cube implying phi: predicates mentioning a location of phi or an
// alias of one, iterated to a fixpoint (Section 5.2, optimization 3).
func (ab *Abstractor) cone(fn string, preds []Pred, phi form.Formula) []Pred {
	locs := form.ReadLocations(phi)
	included := make([]bool, len(preds))
	changed := true
	for changed {
		changed = false
		for i, p := range preds {
			if included[i] {
				continue
			}
			if ab.predTouches(fn, p, locs) {
				included[i] = true
				changed = true
				locs = append(locs, form.ReadLocations(p.F)...)
			}
		}
	}
	var out []Pred
	for i, p := range preds {
		if included[i] {
			out = append(out, p)
		}
	}
	return out
}

// predTouches reports whether the predicate mentions one of the locations
// or a may-alias of one.
func (ab *Abstractor) predTouches(fn string, p Pred, locs []form.Term) bool {
	for _, pl := range form.ReadLocations(p.F) {
		for _, l := range locs {
			if form.TermEq(pl, l) || ab.aa.MayAlias(fn, pl, l) {
				return true
			}
		}
	}
	return false
}

// enforceExpr computes the per-procedure data invariant ¬F_{V}(false)
// (Section 5.1): F_V(false) is the disjunction of minimal inconsistent
// cubes over the predicates, which the enforce statement rules out. It
// runs fv's rounds, on the same worker pool and with the same
// deterministic merge, and asks only about connected candidates.
//
// A candidate that survives superset pruning but is not connected under
// linkGraph is skipped without a verdict. Its connected components are
// proper sub-cubes that earlier rounds already classified as
// satisfiable (an unsatisfiable one would have pruned the candidate),
// and parts that share no symbol the prover relates are jointly
// satisfiable exactly when each part is (Nelson–Oppen), so the candidate
// could never be inconsistent. A sub-cube whose query gave up is not
// known satisfiable; skipping its supersets then only leaves disjuncts
// out of the invariant, which is sound.
func (ab *Abstractor) enforceExpr(fn string, preds []Pred) bp.Expr {
	// A degraded procedure emits no (or a partial) enforce invariant.
	// Every cube the search did record is genuinely unsatisfiable, so a
	// partial disjunction only prunes impossible states — sound; pruning
	// fewer states than the full invariant merely loses precision.
	if ab.degraded() {
		return nil
	}
	searchStart := time.Now()
	searchSpan := ab.opts.Tracer.Begin("cube", "enforce")
	skipped0 := ab.Stats.CubesSkipped
	defer func() {
		ab.Stats.CubeSearchTime += time.Since(searchStart)
		searchSpan.End(trace.Int("skipped", ab.Stats.CubesSkipped-skipped0))
	}()

	links := predLinks(preds)
	classify := func(cands [][]literal, verdicts []cubeVerdict) {
		checkRound(ab.opts.Tracer, len(cands), ab.jobs(), func(i int) {
			if ab.pv.Unsat(cubeFormula(preds, cands[i])) {
				verdicts[i] = verdictContradiction
			}
		})
	}
	// Engine dispatch, mirroring fv: the model engine replaces the
	// per-candidate Unsat queries with one enumeration of the
	// theory-consistent minterms over the scope (models of an
	// unconstrained session), and a cube is unsatisfiable exactly when no
	// consistent minterm is compatible with it. On the driver corpus,
	// whose spec-state predicates are heavily mutually exclusive, the
	// minterm set is far smaller than the candidate set. The guard keeps
	// small or loosely linked scopes on the cube path, where enumerating
	// every minterm costs more checks than the handful of connected
	// candidate queries it would replace — both paths compute the same
	// verdicts, so the emitted invariant does not depend on the choice.
	if ab.useModels() && enforceEnumWins(links, ab.maxCubeLen(len(preds))) {
		e := ab.startEnum(ab.pv.(sessionProver), form.TrueF{}, preds, "enforce")
		e.run()
		e.close()
		// An interrupted enumeration degrades the procedure and emits no
		// invariant — weaker than the cube path, which keeps the
		// contradictions it already proved, but sound.
		if !e.complete {
			return nil
		}
		classify = func(cands [][]literal, verdicts []cubeVerdict) {
			for i, cube := range cands {
				if !compatibleAny(e.minterms, cube) {
					verdicts[i] = verdictContradiction
				}
			}
		}
	}
	disjuncts := ab.rounds(preds, verdictContradiction, func(cube []literal) bool {
		if links.connected(cube) {
			return true
		}
		ab.Stats.CubesSkipped++
		if SkippedCubeHook != nil {
			SkippedCubeHook(cubeFormula(preds, cube))
		}
		return false
	}, classify)
	if len(disjuncts) == 0 {
		return nil
	}
	return bp.MkNot(bp.OrAll(disjuncts))
}

// enforceEnumWins reports whether minterm enumeration can beat the
// per-candidate search on a scope whose predicates are linked by links:
// its worst case is every minterm consistent (2^n sat checks plus the
// closing unsat), while the cube engine's worst case is one query per
// connected candidate with no pruning. When the enumeration's worst
// case is not strictly smaller — n == 1, a scope of mostly unlinked
// predicates, or large n against the maxLen-bounded candidate count —
// the cube path preserves the model engine's never-more-queries
// guarantee.
func enforceEnumWins(links linkGraph, maxLen int) bool {
	n := len(links)
	if n >= 30 {
		return false // 2^n dwarfs any candidate count long before here
	}
	enumWorst := int64(1)<<uint(n) + 1
	candWorst := int64(0)
	for size := 1; size <= maxLen && candWorst <= enumWorst; size++ {
		enumerateCubes(n, size, func(cube []literal) bool {
			if links.connected(cube) {
				candWorst++
			}
			return false
		})
	}
	return enumWorst < candWorst
}

// SkippedCubeHook, when non-nil, receives the formula of every enforce
// candidate the connectivity filter skips. It is a test seam: the
// differential test re-asks each one of a fresh prover. Set it only
// while no abstraction is running.
var SkippedCubeHook func(cube form.Formula)

// linkGraph is the "may interact in the prover" relation over a scope's
// predicates: links[i][j] holds when predicates i and j share a
// variable name anywhere in them, or both contain an uninterpreted
// application (see uninterpreted). Predicates with no such link share
// no symbol the prover's theories relate — linear arithmetic over
// disjoint variables splits, and numerals are rigid — so a conjunction
// of unlinked parts is satisfiable exactly when each part is.
// Applications count as shared even without a common variable because
// congruence closure relates them through implied equalities of their
// arguments: a == 5 ∧ a->f == 1 and b == 5 ∧ b->f == 2 are each
// satisfiable, their conjunction is not.
type linkGraph [][]bool

// predLinks builds the link relation over preds.
func predLinks(preds []Pred) linkGraph {
	vars := make([]map[string]bool, len(preds))
	app := make([]bool, len(preds))
	for i, p := range preds {
		vars[i] = map[string]bool{}
		for _, v := range form.FormulaVars(p.F) {
			vars[i][v] = true
		}
		app[i] = uninterpreted(p.F)
	}
	g := make(linkGraph, len(preds))
	for i := range g {
		g[i] = make([]bool, len(preds))
	}
	for i := range preds {
		for j := 0; j < i; j++ {
			linked := app[i] && app[j]
			for v := range vars[i] {
				linked = linked || vars[j][v]
			}
			g[i][j], g[j][i] = linked, linked
		}
	}
	return g
}

// uninterpreted reports whether f contains a term the prover treats as
// an uninterpreted application: a dereference, field selection, array
// element, address-of, or a multiplication, division or remainder.
func uninterpreted(f form.Formula) bool {
	for _, a := range form.Atoms(f) {
		if uninterpretedTerm(a.X) || uninterpretedTerm(a.Y) {
			return true
		}
	}
	return false
}

func uninterpretedTerm(t form.Term) bool {
	switch t := t.(type) {
	case form.Deref, form.Sel, form.Idx, form.AddrOf:
		return true
	case form.Arith:
		return t.Op == form.OpMul || t.Op == form.OpDiv || t.Op == form.OpMod ||
			uninterpretedTerm(t.X) || uninterpretedTerm(t.Y)
	case form.Neg:
		return uninterpretedTerm(t.X)
	}
	return false
}

// connected reports whether the cube's predicates form one connected
// component of the link graph. Cubes of more than 63 literals (far
// beyond any enumerable round) are conservatively reported connected.
func (g linkGraph) connected(cube []literal) bool {
	k := len(cube)
	if k <= 1 || k > 63 {
		return true
	}
	// Breadth-first search over cube positions, as bitmasks.
	reached, frontier := uint64(1), uint64(1)
	for frontier != 0 {
		i := bits.TrailingZeros64(frontier)
		frontier &^= 1 << i
		row := g[cube[i].idx]
		for j := 1; j < k; j++ {
			if reached&(1<<j) == 0 && row[cube[j].idx] {
				reached |= 1 << j
				frontier |= 1 << j
			}
		}
	}
	return reached == 1<<k-1
}
