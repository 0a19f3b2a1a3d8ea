package abstract

import (
	"math/bits"
	"time"

	"predabs/internal/bp"
	"predabs/internal/form"
	"predabs/internal/prover"
	"predabs/internal/trace"
)

// Pred pairs a boolean-variable name with the C predicate it stands for.
// Construct predicates with NewPred.
type Pred struct {
	// Name is the boolean program variable name (the predicate's source
	// text, e.g. "curr->val > v").
	Name string
	// F is the predicate as a formula.
	F   form.Formula
	neg form.Formula // NNF(¬F)
	// key, nnfKey and negKey are the canonical strings of F, NNF(F) and
	// NNF(¬F); the syntactic checks compare formulas by them.
	key, nnfKey, negKey string
	// reads are F's read locations (form.ReadLocations).
	reads []form.Term
}

// NewPred builds a predicate entry and computes its negation, its
// canonical strings and its read locations once.
func NewPred(name string, f form.Formula) Pred {
	neg := form.NNF(form.MkNot(f))
	return Pred{Name: name, F: f, neg: neg,
		key: f.String(), nnfKey: form.NNF(f).String(), negKey: neg.String(),
		reads: form.ReadLocations(f)}
}

// Neg returns NNF(¬F).
func (p Pred) Neg() form.Formula { return p.neg }

// literal is one signed predicate occurrence in a cube: domain
// predicate Pred, negated unless Pos.
type literal = prover.Lit

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

// enumerateCubes appends to buf, end to end, every signed cube of
// exactly size literals over predicate indices [0, n) that passes the
// filter, in the canonical order (ascending indices; positive literal
// before negative at each position): the order the search checks a
// round's candidates in, and the order its models join the domain's
// store.
// The cube being built lives at buf's tail, so the filter sees it in
// place and nothing is allocated per candidate.
func enumerateCubes(buf []literal, n, size int, keep func([]literal) bool) []literal {
	if size > n {
		return buf
	}
	base := len(buf)
	for i := range size {
		buf = append(buf, literal{Pred: i, Pos: true})
	}
	for {
		if keep(buf[base : base+size]) {
			base += size
			buf = append(buf, buf[base-size:base]...)
		}
		// Step to the next cube: the last position that can still move
		// flips its sign or, when negative, takes the next predicate;
		// the positions after it restart just above it.
		cube := buf[base : base+size]
		j := size - 1
		for ; j >= 0; j-- {
			if cube[j].Pos {
				cube[j].Pos = false
				break
			}
			if cube[j].Pred < n-size+j {
				cube[j] = literal{Pred: cube[j].Pred + 1, Pos: true}
				break
			}
		}
		if j < 0 {
			return buf[:base]
		}
		for k := j + 1; k < size; k++ {
			cube[k] = literal{Pred: cube[k-1].Pred + 1, Pos: true}
		}
	}
}

// fv computes F_V(phi): the largest disjunction of cubes over the
// scope's predicates that implies phi (Section 4.1), as a
// boolean-program expression. The search over phi's cone domain runs
// once per Abstract call: its result is kept in the domain's scope
// record and served to every later call that asks the same phi of the
// same domain (see scope).
func (ab *Abstractor) fv(fn string, sc *scope, phi form.Formula) bp.Expr {
	switch phi.(type) {
	case form.TrueF:
		return bp.Const{Val: true}
	case form.FalseF:
		return bp.Const{Val: false}
	}

	// Optimization 4 (syntactic heuristics): an exact predicate or negated
	// predicate match needs no prover calls. phi's canonical string also
	// keys the memo.
	key := phi.String()
	if ab.opts.SyntacticHeuristics {
		nnfKey := form.NNF(phi).String()
		for _, p := range sc.preds {
			if p.key == key || p.nnfKey == nnfKey {
				return bp.Ref{Name: p.Name}
			}
			if p.negKey == nnfKey {
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
				out = bp.MkAnd(out, ab.fv(fn, sc, g))
			}
			return out
		case form.Or:
			out := bp.Expr(bp.Const{Val: false})
			for _, g := range phi.Fs {
				out = bp.MkOr(out, ab.fv(fn, sc, g))
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

	// Optimization 3: cone of influence. The cone is purely syntactic, so
	// computing it before the degenerate checks costs no queries, and the
	// model engine's sessions track exactly the cube domain's atoms.
	dom := sc
	if ab.opts.ConeOfInfluence {
		dom = ab.cone(fn, sc, phi)
	}
	if r, ok := dom.fv[key]; ok && ab.reuse(r.cubes) {
		ab.Stats.FVReused++
		if ReuseHook != nil {
			ReuseHook("fv", r.e, func() bp.Expr {
				fresh := ab.fresh()
				return fresh.fvSearch(fresh.scopeOf(dom.preds), phi)
			})
		}
		return r.e
	}
	m := ab.mark()
	e := ab.fvSearch(dom, phi)
	if r, ok := ab.record(m, e); ok {
		if dom.fv == nil {
			dom.fv = map[string]reusable{}
		}
		dom.fv[key] = r
	}
	return e
}

// fvSearch is fv's prover-backed cube search over the domain dom.
//
// The cube space is enumerated in sized rounds (Section 5.2,
// optimization 1) so pruning sees short implicants first, yielding prime
// implicants only. The superset pruning can never fire between two cubes
// of the same size (equal-size containment means equality, and
// enumeration never repeats a cube), so the recorded
// implicant/contradiction sets only change at round boundaries.
func (ab *Abstractor) fvSearch(dom *scope, phi form.Formula) bp.Expr {
	searchStart := time.Now()
	searchSpan := ab.opts.Tracer.Begin("cube", "search")
	pv := prover.Backing(ab.pv)
	answers0, evals0 := pv.ModelAnswers(), pv.ModelEvals()
	defer func() {
		ab.Stats.CubeSearchTime += time.Since(searchStart)
		searchSpan.End(trace.Int("model_answers", pv.ModelAnswers()-answers0),
			trace.Int("model_evals", pv.ModelEvals()-evals0))
	}()
	// Engine dispatch: the rounds below are shared; the engines differ
	// only in how a candidate gets its verdict.
	classifierFor := ab.fvQueries
	if ab.opts.Engine == EngineModels {
		classifierFor = ab.fvModels
	}
	classify, early := classifierFor(dom, phi)
	if early != nil {
		return early
	}
	return bp.OrAll(ab.rounds(dom.preds, verdictImplicant, nil, classify))
}

// fvQueries is the cube engine's F_V classifier: Valid(cube, φ), then
// Valid(cube, ¬φ), per candidate in enumeration order, each decided
// against the domain's one compilation. It first answers the degenerate
// goals early, in a round of their own: a valid φ needs no cubes at all,
// and an unsatisfiable φ has none. Both are checks of the empty cube, of
// φ and of ¬φ, so their counter-models, of ¬φ and of φ, join the
// domain's store before the first round.
func (ab *Abstractor) fvQueries(sc *scope, phi form.Formula) (classifier, bp.Expr) {
	dom := sc.domain(ab.pv)
	goal := dom.Goal(phi)
	if checkCube(dom, sc.preds, nil, goal, phi) {
		return nil, bp.Const{Val: true}
	}
	notPhi := form.NNF(form.MkNot(phi))
	notGoal := dom.Goal(notPhi)
	unsat := checkCube(dom, sc.preds, nil, notGoal, notPhi)
	dom.EndRound(goal, notGoal)
	if unsat {
		return nil, bp.Const{Val: false}
	}
	return func(cands [][]literal, verdicts []cubeVerdict) {
		for i, cube := range cands {
			if checkCube(dom, sc.preds, cube, goal, phi) {
				verdicts[i] = verdictImplicant
			} else if checkCube(dom, sc.preds, cube, notGoal, notPhi) {
				verdicts[i] = verdictContradiction
			}
		}
		dom.EndRound(goal, notGoal)
	}, nil
}

// checkCube asks whether the cube implies goal (whose formula is
// goalF), or, when goalF is nil, whether it is unsatisfiable.
func checkCube(dom *prover.Domain, domain []Pred, cube []literal, goal *prover.Goal, goalF form.Formula) bool {
	var v bool
	if goalF != nil {
		v = dom.Valid(cube, goal)
	} else {
		v = dom.Unsat(cube, goal)
	}
	if CubeCheckHook != nil {
		model, cross := goal.Covers(cube)
		CubeCheckHook(cubeFormula(domain, cube), goalF, dom.Key(cube, goal), v, model, cross)
	}
	return v
}

// CubeCheckHook, when non-nil, receives every check the cube engine
// makes of a candidate: the cube's conjunction, the goal (nil for an
// enforce unsatisfiability check), the check's query-cache key, its
// verdict, whether a counter-model of an earlier check answered it, and
// whether that model was found by a check of another goal. It is a test
// seam: the differential test re-asks each check through Valid or
// Unsat. Set it only while no abstraction is running.
var CubeCheckHook func(cube, goal form.Formula, key string, verdict, model, cross bool)

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
	// The decided cubes are copied out of the round's buffer, end to end.
	var decided [][]literal
	var decidedLits []literal
	var disjuncts []bp.Expr
	for size := 1; size <= ab.maxCubeLen(len(domain)); size++ {
		// A mid-search limit keeps the cubes found so far: each one
		// individually has its verdict, so the partial result is sound.
		if ab.degraded() {
			break
		}
		ab.cubeBuf = enumerateCubes(ab.cubeBuf[:0], len(domain), size, func(cube []literal) bool {
			return !supersetOfAny(cube, decided) && (keep == nil || keep(cube))
		})
		cands := ab.cands[:0]
		for i := 0; i < len(ab.cubeBuf); i += size {
			cands = append(cands, ab.cubeBuf[i:i+size:i+size])
		}
		ab.cands = cands
		cands = ab.takeCubes(cands)
		if len(cands) == 0 {
			continue
		}
		ab.Stats.CubesChecked += len(cands)
		ab.Stats.CubeRounds++
		roundSpan := ab.opts.Tracer.Begin("cube", "round")
		verdicts := append(ab.verdicts[:0], make([]cubeVerdict, len(cands))...)
		ab.verdicts = verdicts
		classify(cands, verdicts)
		roundSpan.End(trace.Int("len", size), trace.Int("candidates", len(cands)))
		for i, v := range verdicts {
			if v != verdictNone {
				from := len(decidedLits)
				decidedLits = append(decidedLits, cands[i]...)
				decided = append(decided, decidedLits[from:len(decidedLits):len(decidedLits)])
			}
			if v == want {
				disjuncts = append(disjuncts, cubeExpr(domain, cands[i]))
			}
		}
	}
	return disjuncts
}

// gv computes G_V(phi) = ¬F_V(¬phi): the strongest expressible formula
// implied by phi (Section 4.1).
func (ab *Abstractor) gv(fn string, sc *scope, phi form.Formula) bp.Expr {
	return bp.MkNot(ab.fv(fn, sc, form.NNF(form.MkNot(phi))))
}

// cubeFormula conjoins the cube's literals as a formula.
func cubeFormula(domain []Pred, cube []literal) form.Formula {
	fs := make([]form.Formula, len(cube))
	for i, l := range cube {
		if l.Pos {
			fs[i] = domain[l.Pred].F
		} else {
			fs[i] = domain[l.Pred].Neg()
		}
	}
	return form.MkAnd(fs...)
}

// cubeExpr renders the cube as a boolean-program expression.
func cubeExpr(domain []Pred, cube []literal) bp.Expr {
	out := bp.Expr(bp.Const{Val: true})
	for _, l := range cube {
		var lit bp.Expr = bp.Ref{Name: domain[l.Pred].Name}
		if !l.Pos {
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
// alias of one, iterated to a fixpoint (Section 5.2, optimization 3). It
// returns the record of the restricted list.
func (ab *Abstractor) cone(fn string, sc *scope, phi form.Formula) *scope {
	locs := form.ReadLocations(phi)
	mask := ab.maskBuf[:0]
	for i := 0; i < len(sc.preds); i += 8 {
		mask = append(mask, 0)
	}
	n := 0
	changed := true
	for changed {
		changed = false
		for i, p := range sc.preds {
			if mask[i/8]&(1<<(i%8)) != 0 {
				continue
			}
			if ab.predTouches(fn, p, locs) {
				mask[i/8] |= 1 << (i % 8)
				n++
				changed = true
				locs = append(locs, p.reads...)
			}
		}
	}
	ab.maskBuf = mask
	if n == len(sc.preds) {
		return sc
	}
	if c := sc.cones[string(mask)]; c != nil {
		return c
	}
	out := make([]Pred, 0, n)
	for i, p := range sc.preds {
		if mask[i/8]&(1<<(i%8)) != 0 {
			out = append(out, p)
		}
	}
	c := ab.scopeOf(out)
	if sc.cones == nil {
		sc.cones = map[string]*scope{}
	}
	sc.cones[string(mask)] = c
	return c
}

// predTouches reports whether the predicate mentions one of the locations
// or a may-alias of one.
func (ab *Abstractor) predTouches(fn string, p Pred, locs []form.Term) bool {
	for _, pl := range p.reads {
		for _, l := range locs {
			if form.TermEq(pl, l) || ab.aa.MayAlias(fn, pl, l) {
				return true
			}
		}
	}
	return false
}

// enforceExpr computes the data invariant ¬F_{V}(false) of a
// procedure whose predicates are the scope's (Section 5.1): F_V(false)
// is the disjunction of minimal inconsistent cubes over the predicates,
// which the enforce statement rules out. It runs fv's rounds and asks
// only about connected candidates. The search runs once per scope record;
// later procedures of the same scope are served its result.
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
func (ab *Abstractor) enforceExpr(sc *scope) bp.Expr {
	// A degraded procedure emits no (or a partial) enforce invariant.
	// Every cube the search did record is genuinely unsatisfiable, so a
	// partial disjunction only prunes impossible states — sound; pruning
	// fewer states than the full invariant merely loses precision.
	if ab.degraded() {
		return nil
	}
	if r := sc.enforce; r != nil && ab.reuse(r.cubes) {
		ab.Stats.EnforceReused++
		if ReuseHook != nil {
			ReuseHook("enforce", r.e, func() bp.Expr {
				fresh := ab.fresh()
				return fresh.enforceSearch(fresh.scopeOf(sc.preds))
			})
		}
		return r.e
	}
	m := ab.mark()
	e := ab.enforceSearch(sc)
	if r, ok := ab.record(m, e); ok {
		sc.enforce = &r
	}
	return e
}

// enforceSearch is enforceExpr's cube search over the scope.
func (ab *Abstractor) enforceSearch(sc *scope) bp.Expr {
	searchStart := time.Now()
	searchSpan := ab.opts.Tracer.Begin("cube", "enforce")
	pv := prover.Backing(ab.pv)
	skipped0, answers0, evals0 := ab.Stats.CubesSkipped, pv.ModelAnswers(), pv.ModelEvals()
	defer func() {
		ab.Stats.CubeSearchTime += time.Since(searchStart)
		searchSpan.End(trace.Int("skipped", ab.Stats.CubesSkipped-skipped0),
			trace.Int("model_answers", pv.ModelAnswers()-answers0),
			trace.Int("model_evals", pv.ModelEvals()-evals0))
	}()

	preds, links := sc.preds, sc.linkGraph()
	dom := sc.domain(ab.pv)
	sat := dom.Goal(nil)
	classify := func(cands [][]literal, verdicts []cubeVerdict) {
		for i, cube := range cands {
			if checkCube(dom, preds, cube, sat, nil) {
				verdicts[i] = verdictContradiction
			}
		}
		dom.EndRound(sat)
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
		row := g[cube[i].Pred]
		for j := 1; j < k; j++ {
			if reached&(1<<j) == 0 && row[cube[j].Pred] {
				reached |= 1 << j
				frontier |= 1 << j
			}
		}
	}
	return reached == 1<<k-1
}
