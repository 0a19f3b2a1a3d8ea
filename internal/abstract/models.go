package abstract

import (
	"predabs/internal/bp"
	"predabs/internal/form"
	"predabs/internal/prover"
	"predabs/internal/trace"
)

// enumeration is one blocking-clause loop over a base formula: assert
// it once, then get-model → project onto the predicate domain → block
// the projection → re-check, until the prover reports unsat (the
// minterm set is complete) or gives up (it is not, and the procedure
// degrades). Minterms come out in the prover's deterministic first-model
// order.
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
func (ab *Abstractor) startEnum(base form.Formula, domain []Pred, kind string) *enumeration {
	e := &enumeration{ab: ab, domain: domain, kind: kind}
	e.span = ab.opts.Tracer.Begin("abs.enum", "session")
	e.sess = prover.Backing(ab.pv).NewSession()
	for _, p := range domain {
		e.sess.Track(p.F)
	}
	e.sess.Assert(base)
	return e
}

// step runs one check of the blocking loop and reports whether more
// models may exist. After a false return, either complete is true (the
// set is exhaustive) or limit names the budget that fired.
//
// Soundness under budgets: an interrupted enumeration makes every
// absence-of-model verdict untrustworthy, so the interruption degrades
// the whole procedure, exactly like an exhausted cube budget — F_V
// answers false, the weakest sound value, instead of emitting unproven
// cubes.
func (e *enumeration) step() bool {
	if e.complete || e.limit != "" {
		return false
	}
	e.checks++
	v, mt, limit := e.sess.Check()
	switch v {
	case prover.Unsat:
		e.complete = true
		return false
	case prover.Unknown:
		e.interrupt(limit)
		return false
	}
	lits := make([]form.Formula, len(e.domain))
	for i, p := range e.domain {
		if mt[i] {
			lits[i] = p.F
		} else {
			lits[i] = p.Neg()
		}
	}
	e.minterms = append(e.minterms, mt)
	e.sess.Block(form.NNF(form.MkNot(form.MkAnd(lits...))))
	return true
}

// interrupt records the budget limit that stopped the loop and degrades
// the procedure.
func (e *enumeration) interrupt(limit string) {
	e.limit = limit
	e.ab.markDegraded(limit)
}

// run drains the blocking loop.
func (e *enumeration) run() {
	for e.step() {
	}
}

// close ends the session and its trace span.
func (e *enumeration) close() {
	eff := e.sess.Effort()
	e.span.End(trace.Str("kind", e.kind),
		trace.Int("checks", e.checks),
		trace.Int("models", len(e.minterms)),
		trace.Int("cache_hits", e.sess.CacheHits()),
		trace.Int64("nodes", eff.Nodes),
		trace.Int64("leaves", eff.Leaves),
		trace.Int64("fm_runs", eff.FMRuns),
		trace.Int64("eq_probes", eff.EqProbes),
		trace.Bool("complete", e.complete))
	e.sess.Close()
}

// fvModels is the enumeration engine's F_V classifier: membership
// tests instead of per-cube Valid queries. Two enumerations drive it:
//
//	S = projections onto the domain of prover models of ¬φ
//	T = projections onto the domain of prover models of φ
//
// A cube with no compatible minterm in S implies φ (any model of
// cube ∧ ¬φ would have projected into S), and a cube with no compatible
// minterm in T implies ¬φ — both verdicts are membership tests, so the
// candidate rounds issue zero prover queries. The first check of S
// mirrors the cube engine's Valid(true, φ) degenerate query and the
// first check of T mirrors Valid(φ, false), keeping the engines' query
// counts aligned on degenerate goals; either answers early. The shared
// rounds then emit a disjunction byte-identical to the cube engine's
// whenever the provers' theory verdicts agree (see DESIGN.md for the
// incompleteness corner). An interrupted enumeration answers false.
func (ab *Abstractor) fvModels(sc *scope, phi form.Formula) (classifier, bp.Expr) {
	domain := sc.preds
	eS := ab.startEnum(form.NNF(form.MkNot(phi)), domain, "notphi")
	defer eS.close()
	if !eS.step() {
		// ¬φ unsat: φ is valid. Interrupted: false.
		return nil, bp.Const{Val: eS.complete}
	}
	eT := ab.startEnum(phi, domain, "phi")
	defer eT.close()
	if !eT.step() || len(domain) == 0 {
		// φ unsat, or no domain: no consistent cube implies φ.
		return nil, bp.Const{Val: false}
	}
	eS.run()
	eT.run()
	if !eS.complete || !eT.complete {
		return nil, bp.Const{Val: false}
	}
	return func(cands [][]literal, verdicts []cubeVerdict) {
		for i, cube := range cands {
			if !compatibleAny(eS.minterms, cube) {
				verdicts[i] = verdictImplicant
			} else if !compatibleAny(eT.minterms, cube) {
				verdicts[i] = verdictContradiction
			}
		}
	}, nil
}

// compatible reports whether every literal of the cube agrees with the
// minterm's truth assignment.
func compatible(mt []bool, cube []literal) bool {
	for _, l := range cube {
		if mt[l.Pred] != l.Pos {
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
