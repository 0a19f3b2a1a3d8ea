package abstract

import (
	"strings"

	"predabs/internal/bp"
	"predabs/internal/form"
	"predabs/internal/prover"
)

// scope is the record of one ordered predicate list: a procedure's
// globals and locals, a cone of influence within them, or the domain of
// a post-call update. Most procedures of a program share the
// globals-only list, and the cube searches over a list depend on
// nothing else, so the Abstractor keeps one record per distinct list
// and each search runs once per Abstract call:
//
//   - F_V(φ) over a cone domain depends only on φ, the domain and the
//     options (the procedure enters only through the alias-aware cone,
//     which picks the domain), so fv stores each result under φ's
//     canonical string in the record of its cone domain;
//   - the enforce invariant ¬F_V(false) depends only on the list.
//
// A record also holds the compiled prover.Domain every cube check over
// the list shares, and the enforce search's link graph.
//
// A stored result is served only while it would have come out the same:
// a result is not stored when its procedure degraded during the search
// or one of its queries gave up, a degraded procedure never reads the
// memo, and a reuse is charged the cubes its search checked against the
// procedure's cube budget; when fewer are left, the search runs again
// and truncates where it always did.
type scope struct {
	preds []Pred
	dom   *prover.Domain // built at the first cube check
	links linkGraph      // built at the first enforce search

	fv      map[string]reusable // by φ's canonical string
	enforce *reusable
	// cones maps a cone's inclusion bitmask over preds to its record.
	cones map[string]*scope
}

// reusable is a stored search result and the cubes its search checked.
type reusable struct {
	e     bp.Expr
	cubes int
}

// scopeOf returns the record of the ordered predicate list preds,
// creating it (and keeping preds) on first use. Predicates are keyed by
// name and canonical string.
func (ab *Abstractor) scopeOf(preds []Pred) *scope {
	var b strings.Builder
	for _, p := range preds {
		b.WriteString(p.Name)
		b.WriteByte(0)
		b.WriteString(p.key)
		b.WriteByte(0)
	}
	key := b.String()
	if sc := ab.scopes[key]; sc != nil {
		return sc
	}
	if ab.scopes == nil {
		ab.scopes = map[string]*scope{}
	}
	sc := &scope{preds: preds}
	ab.scopes[key] = sc
	return sc
}

// domain returns the list's compiled literal domain: each predicate and
// its negation.
func (sc *scope) domain(pv prover.Querier) *prover.Domain {
	if sc.dom == nil {
		sc.dom = prover.NewDomain(prover.Backing(pv), len(sc.preds), func(i int) (form.Formula, form.Formula) {
			return sc.preds[i].F, sc.preds[i].Neg()
		})
	}
	return sc.dom
}

// linkGraph returns the link relation over the list's predicates.
func (sc *scope) linkGraph() linkGraph {
	if sc.links == nil {
		sc.links = predLinks(sc.preds)
	}
	return sc.links
}

// searchMark is where a search started: the cubes checked and the
// prover's give-up count.
type searchMark struct{ cubes, gaveUp int }

func (ab *Abstractor) mark() searchMark {
	return searchMark{ab.Stats.CubesChecked, prover.Backing(ab.pv).GaveUp()}
}

// record returns the reusable record of e, the result of a search begun
// at m. It reports false when e may not be reused: the procedure
// degraded during the search, or one of its queries gave up (a timed-out
// query might not on a rerun, so the prover does not cache it either).
func (ab *Abstractor) record(m searchMark, e bp.Expr) (reusable, bool) {
	if ab.procDegraded || prover.Backing(ab.pv).GaveUp() != m.gaveUp {
		return reusable{}, false
	}
	return reusable{e: e, cubes: ab.Stats.CubesChecked - m.cubes}, true
}

// reuse reports whether a stored result whose search checked cubes
// cubes may be served, and charges them to the procedure's cube budget
// if so. It may not when the budget left is smaller: the search then
// runs again and truncates where it would have without the memo.
func (ab *Abstractor) reuse(cubes int) bool {
	if limit := ab.opts.Budget.Limits().CubeBudget; limit > 0 {
		if limit-ab.cubesUsed < cubes {
			return false
		}
		ab.cubesUsed += cubes
	}
	return true
}

// ReuseHook, when non-nil, receives every F_V result ("fv") and enforce
// invariant ("enforce") served from a scope record, with a function
// that computes the same result afresh: on a new Abstractor with an
// empty memo, over a new prover, without tracer or budget. It is a test
// seam: the differential test requires both to print the same. Set it
// only while no abstraction is running.
var ReuseHook func(kind string, served bp.Expr, recompute func() bp.Expr)

// fresh returns an Abstractor for ReuseHook's recomputations.
func (ab *Abstractor) fresh() *Abstractor {
	opts := ab.opts
	opts.Tracer, opts.Budget = nil, nil
	return &Abstractor{res: ab.res, aa: ab.aa, pv: prover.New(), opts: opts}
}
