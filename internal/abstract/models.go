package abstract

import (
	"time"

	"predabs/internal/bp"
	"predabs/internal/budget"
	"predabs/internal/form"
	"predabs/internal/prover"
	"predabs/internal/trace"
)

// sessionProver is the incremental-session capability the
// model-enumeration engine needs; *prover.Prover satisfies it.
// Queriers without it (e.g. fault-injection wrappers) silently fall
// back to the cube engine, which needs only Valid/Unsat.
type sessionProver interface {
	prover.Querier
	NewSession() *prover.Session
}

// useModels reports whether fv should dispatch to the model-enumeration
// engine for this run.
func (ab *Abstractor) useModels() bool {
	if ab.opts.Engine != EngineModels {
		return false
	}
	_, ok := ab.pv.(sessionProver)
	return ok
}

// enumeration is one blocking-clause loop over a base formula: assert
// it once, then get-model → project onto the predicate domain → block
// the projection → re-check, until the prover reports unsat (the
// minterm set is complete) or gives up (it is not, and the caller must
// degrade). Minterms come out in the prover's deterministic first-model
// order, independent of Options.Jobs — the loop is inherently
// sequential, so the engine's output needs no parallel merge at all.
type enumeration struct {
	ab       *Abstractor
	sess     *prover.Session
	domain   []Pred
	kind     string
	span     trace.Span
	minterms [][]bool
	checks   int
	complete bool   // unsat reached: minterms is the full projection set
	limit    string // canonical budget limit that interrupted the loop
}

// startEnum opens a session for one enumeration: track every domain
// predicate (so models always project fully) and assert the base.
func (ab *Abstractor) startEnum(sp sessionProver, base form.Formula, domain []Pred, kind string) *enumeration {
	e := &enumeration{ab: ab, domain: domain, kind: kind}
	e.span = ab.opts.Tracer.Begin("abs.enum", "session")
	e.sess = sp.NewSession()
	for _, p := range domain {
		e.sess.Track(p.F)
	}
	e.sess.Push()
	e.sess.Assert(base)
	return e
}

// step runs one check of the blocking loop and reports whether more
// models may exist. After a false return, either complete is true (the
// set is exhaustive) or limit names the budget that fired.
func (e *enumeration) step() bool {
	if e.complete || e.limit != "" {
		return false
	}
	e.checks++
	v, m, limit := e.sess.Check()
	switch v {
	case prover.Unsat:
		e.complete = true
		return false
	case prover.Unknown:
		e.limit = limit
		return false
	}
	mt := make([]bool, len(e.domain))
	lits := make([]form.Formula, len(e.domain))
	for i, p := range e.domain {
		val, ok := m.Eval(p.F)
		if !ok {
			// Unreachable (every atom of every domain predicate is
			// tracked); treat as an incomplete enumeration to stay sound.
			e.limit = budget.LimitProverBudget
			return false
		}
		mt[i] = val
		if val {
			lits[i] = p.F
		} else {
			lits[i] = p.Neg()
		}
	}
	e.minterms = append(e.minterms, mt)
	e.sess.Block(form.NNF(form.MkNot(form.MkAnd(lits...))))
	return true
}

// run drains the blocking loop.
func (e *enumeration) run() {
	for e.step() {
	}
}

// close ends the session and its trace span.
func (e *enumeration) close() {
	nodes, leaves := e.sess.Effort()
	e.span.End(trace.Str("kind", e.kind),
		trace.Int("checks", e.checks),
		trace.Int("models", len(e.minterms)),
		trace.Int("cache_hits", e.sess.CacheHits()),
		trace.Int64("nodes", nodes),
		trace.Int64("leaves", leaves),
		trace.Bool("complete", e.complete))
	e.sess.Pop()
	e.sess.Close()
}

// fvModels computes F_V(phi) by model enumeration instead of per-cube
// Valid queries. Two enumerations drive it:
//
//	S = projections onto the domain of prover models of ¬φ
//	T = projections onto the domain of prover models of φ
//
// A cube with no compatible minterm in S implies φ (any model of
// cube ∧ ¬φ would have projected into S), and a cube with no compatible
// minterm in T implies ¬φ — both verdicts are membership tests, so the
// candidate rounds below issue zero prover queries. The first check of
// S mirrors the cube engine's Valid(true, φ) degenerate query and the
// first check of T mirrors Valid(φ, false), keeping the engines'
// query counts aligned on degenerate goals. Candidate generation,
// superset pruning, the cube budget and the merge are the shared
// fvRounds, so the emitted disjunction is byte-identical to the cube
// engine's whenever the provers' theory verdicts agree (see DESIGN.md
// for the incompleteness corner).
//
// Soundness under budgets: if either enumeration is interrupted, its
// absence-of-model verdicts are untrustworthy, so the procedure
// degrades exactly like an exhausted cube budget — F_V answers false,
// the weakest sound value — instead of emitting unproven implicants.
func (ab *Abstractor) fvModels(fn string, preds []Pred, phi form.Formula) bp.Expr {
	sp := ab.pv.(sessionProver)
	searchStart := time.Now()
	searchSpan := ab.opts.Tracer.Begin("cube", "search")
	defer func() {
		ab.Stats.CubeSearchTime += time.Since(searchStart)
		searchSpan.End()
	}()

	// The cone is purely syntactic; computing it before the degenerate
	// checks (the cube engine computes it after) costs no queries and
	// lets the sessions track exactly the cube domain's atoms.
	domain := preds
	if ab.opts.ConeOfInfluence {
		domain = ab.cone(fn, preds, phi)
	}
	notPhi := form.NNF(form.MkNot(phi))

	eS := ab.startEnum(sp, notPhi, domain, "notphi")
	defer eS.close()
	moreS := eS.step()
	if eS.limit != "" {
		ab.markDegraded(eS.limit)
		return bp.Const{Val: false}
	}
	if !moreS {
		return bp.Const{Val: true} // ¬φ unsat: φ is valid
	}

	eT := ab.startEnum(sp, phi, domain, "phi")
	defer eT.close()
	moreT := eT.step()
	if eT.limit != "" {
		ab.markDegraded(eT.limit)
		return bp.Const{Val: false}
	}
	if !moreT {
		return bp.Const{Val: false} // φ unsat: no consistent cube implies it
	}
	if len(domain) == 0 {
		return bp.Const{Val: false}
	}

	eS.run()
	eT.run()
	if lim := eS.limit; lim != "" {
		ab.markDegraded(lim)
		return bp.Const{Val: false}
	}
	if lim := eT.limit; lim != "" {
		ab.markDegraded(lim)
		return bp.Const{Val: false}
	}

	maxLen := ab.opts.MaxCubeLen
	if maxLen <= 0 || maxLen > len(domain) {
		maxLen = len(domain)
	}
	disjuncts := ab.fvRounds(domain, maxLen, func(cands [][]literal, verdicts []cubeVerdict) {
		for i, cube := range cands {
			if !compatibleAny(eS.minterms, cube) {
				verdicts[i] = verdictImplicant
			} else if !compatibleAny(eT.minterms, cube) {
				verdicts[i] = verdictContradiction
			}
		}
	})
	return bp.OrAll(disjuncts)
}

// enforceModels computes the enforce invariant ¬F_V(false) by
// enumerating the theory-consistent minterms over the scope's
// predicates once (models of an unconstrained session, projected onto
// the predicate pool): a cube is unsatisfiable exactly when no
// consistent minterm is compatible with it, so the candidate rounds
// classify by membership with zero further prover queries. The cube
// engine instead pays one Unsat query per candidate — on the driver
// corpus, whose spec-state predicates are heavily mutually exclusive,
// the minterm set is far smaller than the candidate set and this is
// where most of the model engine's query savings come from.
//
// A give-up mid-enumeration means absence-of-model is untrustworthy, so
// the procedure degrades and no invariant is emitted — weaker than the
// cube engine's behaviour (which keeps the contradictions it already
// proved), but sound: enforce only ever prunes impossible states.
func (ab *Abstractor) enforceModels(preds []Pred, links linkGraph, maxLen int) bp.Expr {
	sp := ab.pv.(sessionProver)
	e := ab.startEnum(sp, form.TrueF{}, preds, "enforce")
	defer e.close()
	e.run()
	if e.limit != "" {
		ab.markDegraded(e.limit)
		return nil
	}
	return ab.enforceRounds(preds, links, maxLen, func(cands [][]literal, verdicts []cubeVerdict) {
		for i, cube := range cands {
			if !compatibleAny(e.minterms, cube) {
				verdicts[i] = verdictContradiction
			}
		}
	})
}

// compatible reports whether every literal of the cube agrees with the
// minterm's truth assignment.
func compatible(mt []bool, cube []literal) bool {
	for _, l := range cube {
		if mt[l.idx] != l.pos {
			return false
		}
	}
	return true
}

// compatibleAny reports whether some minterm is compatible with the cube.
func compatibleAny(minterms [][]bool, cube []literal) bool {
	for _, mt := range minterms {
		if compatible(mt, cube) {
			return true
		}
	}
	return false
}
