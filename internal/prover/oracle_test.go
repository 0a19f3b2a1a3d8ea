package prover

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"predabs/internal/form"
)

// The reference solver: the prover's original search, kept verbatim as a
// test-only oracle. It rebuilds the formula by substitution and constant
// folding at every search node (assignAtom), picks the first atom of the
// folded formula (firstAtom), and decides theory leaves with map-based
// linear arithmetic over "c<id>" class names. The production search must
// visit exactly the same tree: same verdict, same node and leaf counts,
// same model.

// oracleState counts the reference search's effort.
type oracleState struct {
	budget int
	nodes  int
	leaves int
}

// oracleDecide answers Unsat(f) with the reference search.
func oracleDecide(f form.Formula) (unsat bool, st oracleState) {
	st.budget = maxLeafChecks
	res := !oracleSat(form.NNF(f), nil, &st)
	if st.budget <= 0 {
		res = false
	}
	return res, st
}

// oracleCheck runs the reference model search over f with the given
// tracked atoms (in registration order).
func oracleCheck(f form.Formula, tracked []trackedAtom) (Verdict, *Model, oracleState) {
	st := oracleState{budget: maxLeafChecks}
	m := oracleSatModel(tracked, form.NNF(f), nil, nil, &st)
	switch {
	case m != nil:
		return Sat, m, st
	case st.budget <= 0:
		return Unknown, nil, st
	}
	return Unsat, nil, st
}

func oracleSat(f form.Formula, lits []lit, st *oracleState) bool {
	st.nodes++
	if st.budget <= 0 {
		return true
	}
	switch f.(type) {
	case form.FalseF:
		return false
	case form.TrueF:
		st.budget--
		st.leaves++
		return oracleTheoryConsistent(lits)
	}
	atom := firstAtom(f)
	key, flip := atomKey(atom)
	for _, val := range []bool{true, false} {
		f2 := assignAtom(f, key, val != flip)
		if oracleSat(f2, append(lits, litOf(atom, val)), st) {
			return true
		}
	}
	return false
}

// binding is one canonical atom assignment along a search path.
type binding struct {
	key string
	val bool // truth of the canonical base atom
}

func oracleSatModel(tracked []trackedAtom, f form.Formula, lits []lit, binds []binding, st *oracleState) *Model {
	st.nodes++
	if st.budget <= 0 {
		return nil
	}
	switch f.(type) {
	case form.FalseF:
		return nil
	case form.TrueF:
		ta, ok := nextTracked(tracked, binds)
		if !ok {
			st.budget--
			st.leaves++
			if oracleTheoryConsistent(lits) {
				m := &Model{assign: make(map[string]bool, len(binds))}
				for _, b := range binds {
					m.assign[b.key] = b.val
				}
				return m
			}
			return nil
		}
		for _, val := range []bool{true, false} {
			m := oracleSatModel(tracked, f, append(lits, litOf(ta.cmp, val)),
				append(binds, binding{key: ta.key, val: val != ta.flip}), st)
			if m != nil {
				return m
			}
		}
		return nil
	}
	atom := firstAtom(f)
	key, flip := atomKey(atom)
	for _, val := range []bool{true, false} {
		f2 := assignAtom(f, key, val != flip)
		m := oracleSatModel(tracked, f2, append(lits, litOf(atom, val)),
			append(binds, binding{key: key, val: val != flip}), st)
		if m != nil {
			return m
		}
	}
	return nil
}

// nextTracked returns the first tracked atom not yet bound on the path.
func nextTracked(tracked []trackedAtom, binds []binding) (trackedAtom, bool) {
	for _, ta := range tracked {
		bound := false
		for _, b := range binds {
			if b.key == ta.key {
				bound = true
				break
			}
		}
		if !bound {
			return ta, true
		}
	}
	return trackedAtom{}, false
}

// firstAtom returns the first comparison atom in f (f is in NNF and not a
// constant, so one exists).
func firstAtom(f form.Formula) form.Cmp {
	switch f := f.(type) {
	case form.Cmp:
		return f
	case form.Not:
		return firstAtom(f.F)
	case form.And:
		for _, g := range f.Fs {
			if a, ok := tryFirstAtom(g); ok {
				return a
			}
		}
	case form.Or:
		for _, g := range f.Fs {
			if a, ok := tryFirstAtom(g); ok {
				return a
			}
		}
	}
	panic(fmt.Sprintf("prover: no atom in %s", f))
}

func tryFirstAtom(f form.Formula) (form.Cmp, bool) {
	switch f := f.(type) {
	case form.Cmp:
		return f, true
	case form.Not:
		return tryFirstAtom(f.F)
	case form.And:
		for _, g := range f.Fs {
			if a, ok := tryFirstAtom(g); ok {
				return a, true
			}
		}
	case form.Or:
		for _, g := range f.Fs {
			if a, ok := tryFirstAtom(g); ok {
				return a, true
			}
		}
	}
	return form.Cmp{}, false
}

// assignAtom substitutes a truth value for every atom with the given
// canonical key and folds constants.
func assignAtom(f form.Formula, key string, val bool) form.Formula {
	switch f := f.(type) {
	case form.TrueF, form.FalseF:
		return f
	case form.Cmp:
		k, flip := atomKey(f)
		if k != key {
			return f
		}
		v := val != flip
		if v {
			return form.TrueF{}
		}
		return form.FalseF{}
	case form.Not:
		return form.MkNot(assignAtom(f.F, key, val))
	case form.And:
		out := make([]form.Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = assignAtom(g, key, val)
		}
		return form.MkAnd(out...)
	case form.Or:
		out := make([]form.Formula, len(f.Fs))
		for i, g := range f.Fs {
			out[i] = assignAtom(g, key, val)
		}
		return form.MkOr(out...)
	}
	return f
}

// --- Reference theory combination with map-based linear arithmetic ---

func oracleTheoryConsistent(lits []lit) bool {
	c := newCC()
	for _, l := range lits {
		switch l.op {
		case form.Eq:
			c.merge(l.x, l.y)
		case form.Ne:
			c.disequal(l.x, l.y)
		default:
			c.add(l.x)
			c.add(l.y)
			c.propagate()
		}
		if c.failed {
			return false
		}
	}
	for iter := 0; iter < maxCombineIters; iter++ {
		cons, neqs := oBuildLA(c, lits)
		feasible, precise := oLaFeasible(cons)
		if !feasible {
			return false
		}
		if !precise {
			return true
		}
		for _, d := range neqs {
			if oEntailsZero(cons, d.coefs, d.k) {
				return false
			}
		}
		if !oPropagateEqualities(c, cons) {
			if c.failed {
				return false
			}
			return true
		}
		if c.failed {
			return false
		}
	}
	return true
}

// oLinCons is Σ coefs[v]·v ≤ k.
type oLinCons struct {
	coefs map[string]int64
	k     int64
}

func (c oLinCons) clone() oLinCons {
	m := make(map[string]int64, len(c.coefs))
	for v, co := range c.coefs {
		m[v] = co
	}
	return oLinCons{coefs: m, k: c.k}
}

func (c *oLinCons) normalize() bool {
	for v, co := range c.coefs {
		if co == 0 {
			delete(c.coefs, v)
		}
	}
	if len(c.coefs) == 0 {
		return c.k >= 0
	}
	var g int64
	for _, co := range c.coefs {
		g = gcd64(g, co)
	}
	if g > 1 {
		for v := range c.coefs {
			c.coefs[v] /= g
		}
		k := c.k
		if k >= 0 {
			c.k = k / g
		} else {
			c.k = -((-k + g - 1) / g)
		}
	}
	return true
}

func oLaFeasible(cons []oLinCons) (feasible, precise bool) {
	work := make([]oLinCons, 0, len(cons))
	for _, c := range cons {
		c2 := c.clone()
		if !c2.normalize() {
			return false, true
		}
		if len(c2.coefs) > 0 {
			work = append(work, c2)
		}
	}
	for {
		counts := map[string][2]int{}
		for _, c := range work {
			for v, co := range c.coefs {
				pc := counts[v]
				if co > 0 {
					pc[0]++
				} else {
					pc[1]++
				}
				counts[v] = pc
			}
		}
		if len(counts) == 0 {
			return true, true
		}
		vars := make([]string, 0, len(counts))
		for v := range counts {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		best, bestCost := vars[0], 1<<30
		for _, v := range vars {
			pc := counts[v]
			cost := pc[0] * pc[1]
			if cost < bestCost {
				best, bestCost = v, cost
			}
		}
		var pos, neg, rest []oLinCons
		for _, c := range work {
			switch co := c.coefs[best]; {
			case co > 0:
				pos = append(pos, c)
			case co < 0:
				neg = append(neg, c)
			default:
				rest = append(rest, c)
			}
		}
		work = rest
		for _, a := range pos {
			for _, b := range neg {
				ca, cb := a.coefs[best], -b.coefs[best]
				nc := oLinCons{coefs: map[string]int64{}}
				for v, co := range a.coefs {
					nc.coefs[v] += co * cb
				}
				for v, co := range b.coefs {
					nc.coefs[v] += co * ca
				}
				nc.k = a.k*cb + b.k*ca
				if !nc.normalize() {
					return false, true
				}
				if len(nc.coefs) > 0 {
					work = append(work, nc)
				}
				if len(work) > fmMaxConstraints {
					return true, false
				}
			}
		}
	}
}

func oEntailsZero(cons []oLinCons, coefs map[string]int64, k int64) bool {
	le := oLinCons{coefs: map[string]int64{}, k: -1 - k}
	for v, co := range coefs {
		le.coefs[v] = co
	}
	if f, prec := oLaFeasible(append(cons[:len(cons):len(cons)], le)); f || !prec {
		return false
	}
	ge := oLinCons{coefs: map[string]int64{}, k: -1 + k}
	for v, co := range coefs {
		ge.coefs[v] = -co
	}
	if f, prec := oLaFeasible(append(cons[:len(cons):len(cons)], ge)); f || !prec {
		return false
	}
	return true
}

type oLinExpr struct {
	coefs map[string]int64
	k     int64
}

func (e oLinExpr) sub(o oLinExpr) oLinExpr {
	out := oLinExpr{coefs: map[string]int64{}, k: e.k - o.k}
	for v, c := range e.coefs {
		out.coefs[v] += c
	}
	for v, c := range o.coefs {
		out.coefs[v] -= c
	}
	for v, c := range out.coefs {
		if c == 0 {
			delete(out.coefs, v)
		}
	}
	return out
}

func oBuildLA(c *cc, lits []lit) (cons []oLinCons, neqs []oLinExpr) {
	for _, l := range lits {
		lx := oLinearize(c, l.x)
		ly := oLinearize(c, l.y)
		d := lx.sub(ly)
		switch l.op {
		case form.Eq:
			neg := map[string]int64{}
			for v, co := range d.coefs {
				neg[v] = -co
			}
			cons = append(cons,
				oLinCons{coefs: d.coefs, k: -d.k},
				oLinCons{coefs: neg, k: d.k})
		case form.Le:
			cons = append(cons, oLinCons{coefs: d.coefs, k: -d.k})
		case form.Lt:
			cons = append(cons, oLinCons{coefs: d.coefs, k: -d.k - 1})
		case form.Ne:
			neqs = append(neqs, d)
		}
	}
	return cons, neqs
}

func oLinearize(c *cc, t form.Term) oLinExpr {
	switch t := t.(type) {
	case form.Num:
		return oLinExpr{coefs: map[string]int64{}, k: t.V}
	case form.Neg:
		e := oLinearize(c, t.X)
		for v := range e.coefs {
			e.coefs[v] = -e.coefs[v]
		}
		e.k = -e.k
		return e
	case form.Arith:
		switch t.Op {
		case form.OpAdd, form.OpSub:
			x := oLinearize(c, t.X)
			y := oLinearize(c, t.Y)
			if t.Op == form.OpAdd {
				out := oLinExpr{coefs: map[string]int64{}, k: x.k + y.k}
				for v, co := range x.coefs {
					out.coefs[v] += co
				}
				for v, co := range y.coefs {
					out.coefs[v] += co
				}
				return out
			}
			return x.sub(y)
		case form.OpMul:
			if n, ok := t.X.(form.Num); ok {
				y := oLinearize(c, t.Y)
				for v := range y.coefs {
					y.coefs[v] *= n.V
				}
				y.k *= n.V
				return y
			}
			if n, ok := t.Y.(form.Num); ok {
				x := oLinearize(c, t.X)
				for v := range x.coefs {
					x.coefs[v] *= n.V
				}
				x.k *= n.V
				return x
			}
		}
	}
	id, ok := c.byKey[t.String()]
	if !ok {
		id = c.add(t)
	}
	if v, has := c.classConst(id); has {
		return oLinExpr{coefs: map[string]int64{}, k: v}
	}
	return oLinExpr{coefs: map[string]int64{fmt.Sprintf("c%d", c.find(id)): 1}, k: 0}
}

func oPropagateEqualities(c *cc, cons []oLinCons) bool {
	varSet := map[string]bool{}
	for _, cn := range cons {
		for v := range cn.coefs {
			varSet[v] = true
		}
	}
	if len(varSet) == 0 || len(varSet) > maxProbeVars {
		return false
	}
	vars := make([]string, 0, len(varSet))
	for v := range varSet {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	changed := false
	for i := 0; i < len(vars) && !c.failed; i++ {
		for j := i + 1; j < len(vars) && !c.failed; j++ {
			ni, nj := classID(vars[i]), classID(vars[j])
			if ni < 0 || nj < 0 || c.find(ni) == c.find(nj) {
				continue
			}
			if oEntailsZero(cons, map[string]int64{vars[i]: 1, vars[j]: -1}, 0) {
				c.mergeIDs(ni, nj)
				changed = true
			}
		}
	}
	consts := collectConstants(c)
	for _, v := range vars {
		if c.failed {
			break
		}
		ni := classID(v)
		if ni < 0 {
			continue
		}
		if _, has := c.classConst(ni); has {
			continue
		}
		for _, kv := range consts {
			if oEntailsZero(cons, map[string]int64{v: 1}, -kv.val) {
				c.mergeIDs(ni, kv.id)
				changed = true
				break
			}
		}
	}
	return changed
}

// classID parses a "c<id>" class name.
func classID(key string) int {
	if !strings.HasPrefix(key, "c") {
		return -1
	}
	n, err := strconv.Atoi(key[1:])
	if err != nil {
		return -1
	}
	return n
}

// ReplayAgainstOracle installs a search hook that replays every search
// the prover finishes through the reference solver and compares the
// verdict, the node and leaf counts and the model. The returned function
// uninstalls the hook and reports how many searches were compared and
// every disagreement. Queries must not run while it is installed or
// removed.
func ReplayAgainstOracle() (stop func() (searches int, diffs []string)) {
	var mu sync.Mutex
	n := 0
	var diffs []string
	searchHook = func(q form.Formula, tracked []trackedAtom, s *searcher, found bool) {
		var d string
		if s.models {
			v, m, ost := oracleCheck(q, append([]trackedAtom(nil), tracked...))
			switch {
			case (v == Sat) != found:
				d = fmt.Sprintf("model found: oracle %v, search %v", v == Sat, found)
			case !sameModel(m, s.model):
				d = fmt.Sprintf("models differ: oracle %v, search %v", modelOf(m), modelOf(s.model))
			case int64(ost.nodes) != s.nodes || int64(ost.leaves) != s.leaves:
				d = fmt.Sprintf("effort differs: oracle %d nodes %d leaves, search %d nodes %d leaves",
					ost.nodes, ost.leaves, s.nodes, s.leaves)
			}
		} else {
			ost := oracleState{budget: maxLeafChecks}
			ofound := oracleSat(form.NNF(q), nil, &ost)
			switch {
			case ofound != found:
				d = fmt.Sprintf("verdict differs: oracle found %v, search found %v", ofound, found)
			case int64(ost.nodes) != s.nodes || int64(ost.leaves) != s.leaves:
				d = fmt.Sprintf("effort differs: oracle %d nodes %d leaves, search %d nodes %d leaves",
					ost.nodes, ost.leaves, s.nodes, s.leaves)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		n++
		if d != "" && len(diffs) < 20 {
			diffs = append(diffs, d+" on "+q.String())
		}
	}
	return func() (int, []string) {
		searchHook = nil
		mu.Lock()
		defer mu.Unlock()
		return n, diffs
	}
}

func sameModel(a, b *Model) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.assign) != len(b.assign) {
		return false
	}
	for k, v := range a.assign {
		if w, ok := b.assign[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func modelOf(m *Model) any {
	if m == nil {
		return nil
	}
	return m.assign
}
