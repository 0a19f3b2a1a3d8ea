package prover

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"predabs/internal/form"
)

// formModel reads a counter-model back at the level of form terms, for
// an evaluator that shares nothing with the compiled one: variables by
// name, and each uninterpreted application through the model's table of
// its function symbol, keyed by argument values.
type formModel struct {
	m   *cmodel
	tab *termTable
	// addrs maps each variable whose address was evaluated to that
	// address, to check the address axioms.
	addrs map[string]int64
}

func newFormModel(m *cmodel, tab *termTable) *formModel {
	return &formModel{m: m, tab: tab, addrs: map[string]int64{}}
}

func (fm *formModel) entry(label int32, a0, a1 int64) (int64, error) {
	for _, e := range fm.m.tab {
		if e.label == label && e.a0 == a0 && e.a1 == a1 {
			return e.v, nil
		}
	}
	return 0, fmt.Errorf("no table entry for symbol %d at (%d, %d)", label, a0, a1)
}

func (fm *formModel) term(t form.Term) (int64, error) {
	switch t := t.(type) {
	case form.Num:
		return t.V, nil
	case form.Var:
		fm.tab.mu.RLock()
		key, ok := fm.tab.keys[t.Name]
		fm.tab.mu.RUnlock()
		if !ok || int(key) >= len(fm.m.keyGen) || fm.m.keyGen[key] != fm.m.gen {
			return 0, fmt.Errorf("variable %s has no value", t.Name)
		}
		return fm.m.keyVal[key], nil
	case form.Neg:
		x, err := fm.term(t.X)
		if err != nil {
			return 0, err
		}
		return checked(mulOK(x, -1))
	case form.Arith:
		x, err := fm.term(t.X)
		if err != nil {
			return 0, err
		}
		y, err := fm.term(t.Y)
		if err != nil {
			return 0, err
		}
		_, xNum := t.X.(form.Num)
		_, yNum := t.Y.(form.Num)
		switch {
		case t.Op == form.OpAdd:
			return checked(addOK(x, y))
		case t.Op == form.OpSub:
			ny, ok := mulOK(y, -1)
			if !ok {
				return 0, fmt.Errorf("overflow")
			}
			return checked(addOK(x, ny))
		case t.Op == form.OpMul && (xNum || yNum):
			return checked(mulOK(x, y))
		}
		return fm.entry(labelArith+int32(t.Op), x, y)
	case form.Deref:
		x, err := fm.term(t.X)
		if err != nil {
			return 0, err
		}
		return fm.entry(labelDeref, x, 0)
	case form.Sel:
		x, err := fm.term(t.X)
		if err != nil {
			return 0, err
		}
		fm.tab.mu.RLock()
		label, ok := fm.tab.fields[t.Field]
		fm.tab.mu.RUnlock()
		if !ok {
			return 0, fmt.Errorf("field %s not compiled", t.Field)
		}
		return fm.entry(label, x, 0)
	case form.Idx:
		x, err := fm.term(t.X)
		if err != nil {
			return 0, err
		}
		i, err := fm.term(t.I)
		if err != nil {
			return 0, err
		}
		return fm.entry(labelIdx, x, i)
	case form.AddrOf:
		x, err := fm.term(t.X)
		if err != nil {
			return 0, err
		}
		a, err := fm.entry(labelAddr, x, 0)
		if err != nil {
			return 0, err
		}
		if v, ok := t.X.(form.Var); ok {
			if a == 0 {
				return 0, fmt.Errorf("&%s is NULL", v.Name)
			}
			for w, b := range fm.addrs {
				if w != v.Name && b == a {
					return 0, fmt.Errorf("&%s == &%s", v.Name, w)
				}
			}
			fm.addrs[v.Name] = a
			if back, err := fm.entry(labelDeref, a, 0); err != nil || back != x {
				return 0, fmt.Errorf("*(&%s) is not %s", v.Name, v.Name)
			}
		}
		return a, nil
	}
	return 0, fmt.Errorf("unknown term %T", t)
}

func checked(v int64, ok bool) (int64, error) {
	if !ok {
		return 0, fmt.Errorf("overflow")
	}
	return v, nil
}

func (fm *formModel) formula(f form.Formula) (bool, error) {
	switch f := f.(type) {
	case form.TrueF:
		return true, nil
	case form.FalseF:
		return false, nil
	case form.Not:
		v, err := fm.formula(f.F)
		return !v, err
	case form.And:
		for _, g := range f.Fs {
			if v, err := fm.formula(g); err != nil || !v {
				return false, err
			}
		}
		return true, nil
	case form.Or:
		for _, g := range f.Fs {
			if v, err := fm.formula(g); err != nil || v {
				return v, err
			}
		}
		return false, nil
	case form.Cmp:
		x, err := fm.term(f.X)
		if err != nil {
			return false, err
		}
		y, err := fm.term(f.Y)
		if err != nil {
			return false, err
		}
		switch f.Op {
		case form.Eq:
			return x == y, nil
		case form.Ne:
			return x != y, nil
		case form.Lt:
			return x < y, nil
		case form.Le:
			return x <= y, nil
		case form.Gt:
			return x > y, nil
		}
		return x >= y, nil
	}
	return false, fmt.Errorf("unknown formula %T", f)
}

// litFormula is a theory literal as a comparison.
func litFormula(l lit) form.Formula { return form.Cmp{Op: l.op, X: l.x, Y: l.y} }

// TestLeafModelsSatisfyLeaves builds the counter-model of every
// consistent leaf of randomLeaves and requires each kept one to satisfy
// every literal of its leaf under the independent form-level evaluator,
// address axioms included. Then it corrupts the model, one table entry
// or one side of an equality at a time, and requires the validation
// (check, and every leaf literal holding) to reject it.
func TestLeafModelsSatisfyLeaves(t *testing.T) {
	tab := newTermTable()
	var th theory
	consistent, kept, entries, sides := 0, 0, 0, 0
	for _, lits := range randomLeaves() {
		ids := compileLits(tab, lits)
		snap := tab.snapshot()
		if !th.check(snap, ids, &theoryEffort{}) {
			continue
		}
		consistent++
		m := &th.m
		valid := func() bool {
			for _, id := range ids {
				if !m.holds(id) {
					return false
				}
			}
			return m.check()
		}
		if !m.build(snap, &th, ids) || !m.check() {
			continue
		}
		kept++
		fm := newFormModel(m, tab)
		for _, l := range lits {
			if v, err := fm.formula(litFormula(l)); err != nil || !v {
				t.Fatalf("%v: the model of the leaf falsifies %v (%v)", lits, l, err)
			}
		}
		for i := range m.tab {
			m.tab[i].v++
			if valid() {
				t.Fatalf("%v: a model with table entry %+v corrupted checks out", lits, m.tab[i])
			}
			m.tab[i].v--
			entries++
		}
		for i, l := range lits {
			x, y := snap.terms[snap.lits[ids[i]].x].key, snap.terms[snap.lits[ids[i]].y].key
			if l.op != form.Eq || x == y {
				continue
			}
			m.keyVal[x]++
			if valid() {
				t.Fatalf("%v: a model with the value of %v corrupted checks out", lits, l.x)
			}
			m.keyVal[x]--
			sides++
		}
		if !valid() {
			t.Fatalf("%v: the restored model no longer checks out", lits)
		}
	}
	t.Logf("%d of %d consistent leaves kept a model; %d table entries and %d equality sides corrupted", kept, consistent, entries, sides)
	if kept < consistent/2 || entries == 0 || sides == 0 {
		t.Fatalf("%d of %d consistent leaves kept a model, %d entries and %d sides corrupted", kept, consistent, entries, sides)
	}
}

// modelPreds is a domain of the quick-check atoms and some pointer
// atoms.
func modelPreds() []form.Formula {
	x, y := form.Var{Name: "x"}, form.Var{Name: "y"}
	p, q := form.Var{Name: "p"}, form.Var{Name: "q"}
	return []form.Formula{
		form.Cmp{Op: form.Lt, X: x, Y: y},
		form.Cmp{Op: form.Eq, X: x, Y: form.Num{V: 0}},
		form.Cmp{Op: form.Ge, X: y, Y: form.Num{V: 1}},
		form.Cmp{Op: form.Eq, X: x, Y: y},
		form.Cmp{Op: form.Le, X: form.Arith{Op: form.OpAdd, X: x, Y: y}, Y: form.Num{V: 2}},
		form.Cmp{Op: form.Ne, X: y, Y: form.Num{V: 0}},
		form.Cmp{Op: form.Eq, X: form.Deref{X: p}, Y: x},
		form.Cmp{Op: form.Eq, X: p, Y: form.AddrOf{X: y}},
		form.Cmp{Op: form.Gt, X: form.Sel{X: form.Deref{X: q}, Field: "f"}, Y: form.Arith{Op: form.OpMul, X: x, Y: y}},
		form.Cmp{Op: form.Ne, X: q, Y: form.Num{V: 0}},
	}
}

// TestCubeModelsSatisfyQueries runs random cube checks over a domain of
// the quick-check atoms and some pointer atoms, against goals from the
// quick-check formula space, a round at a time. Every counter-model a
// search keeps must satisfy its query, the cube's conjunction and the
// negated goal (or the cube alone for an Unsat check), under the
// independent evaluator, and its bitmasks must be the predicates' values
// there. Every check a model answers must get the verdict a cache-less
// prover gives.
func TestCubeModelsSatisfyQueries(t *testing.T) {
	preds := modelPreds()
	pv := New()
	d := domainOf(pv, preds)
	ref := New()
	ref.DisableCache = true

	var cur form.Formula
	var failure error
	models := 0
	modelHook = func(m *cmodel, val uint64) {
		models++
		fm := newFormModel(m, pv.terms)
		if v, err := fm.formula(cur); err != nil || !v {
			failure = fmt.Errorf("a model falsifies its query %s (%v)", cur, err)
			return
		}
		for i, f := range preds {
			for _, side := range []struct {
				f     form.Formula
				holds bool
			}{{f, val&(1<<i) != 0}, {form.NNF(form.MkNot(f)), val&(1<<i) == 0}} {
				v, err := fm.formula(side.f)
				if err != nil || v != side.holds {
					failure = fmt.Errorf("query %s: the model's bit for %s is not its value (%v)", cur, side.f, err)
					return
				}
			}
		}
	}
	defer func() { modelHook = nil }()

	answered, crossed := 0, 0
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(func(gb []byte, picks []uint16) bool {
		if len(gb) > 5 {
			gb = gb[:5]
		}
		goalF := decodeFormula(gb)
		g, sat := d.Goal(goalF), d.Goal(nil)
		for round := 0; round < 3; round++ {
			for _, pick := range picks {
				cube := randomCube(pick, len(preds), round+1)
				conj := cubeConj(preds, cube)
				for _, unsat := range []bool{false, true} {
					covered, cross := g.Covers(cube)
					cur = form.MkAnd(conj, form.MkNot(goalF))
					var v, want bool
					if unsat {
						covered, cross = sat.Covers(cube)
						cur = conj
						v, want = d.Unsat(cube, sat), ref.Unsat(conj)
					} else {
						v, want = d.Valid(cube, g), ref.Valid(conj, goalF)
					}
					if failure != nil {
						t.Error(failure)
						return false
					}
					if covered {
						answered++
						if cross {
							crossed++
						}
						if v || want {
							t.Errorf("a counter-model answered %s, which the prover proves", cur)
							return false
						}
					}
				}
			}
			d.EndRound(g, sat)
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d models kept, %d checks answered by one, %d by another goal's", models, answered, crossed)
	if models == 0 || answered == 0 || crossed == 0 {
		t.Fatalf("%d models kept, %d checks answered by one, %d by another goal's", models, answered, crossed)
	}
}

// randomCube draws a cube of size literals over n predicates from pick.
func randomCube(pick uint16, n, size int) []Lit {
	r := rand.New(rand.NewSource(int64(pick)))
	var cube []Lit
	for _, i := range r.Perm(n)[:size] {
		cube = append(cube, Lit{Pred: i, Pos: r.Intn(2) == 0})
	}
	return cube
}

// TestStoredModelsDecideNewGoals fills a domain's store with the
// counter-models of every cube check against two goals and the Unsat
// goal, then asks goals the checks never saw: new variables, new
// applications over values the models hold, a new field and a new
// address. For every stored model it re-evaluates each new goal's
// negated root as catch-up does; wherever the extended model checks out,
// the verdict must be the independent form-level evaluator's, and the
// goal's pool must hold exactly the valuations of the models that
// falsify it. Then it corrupts one stored value (of a numeral, computed
// term or application) or one table row at a time, and cmodel.check
// must reject the model.
func TestStoredModelsDecideNewGoals(t *testing.T) {
	x, y, z, w := form.Var{Name: "x"}, form.Var{Name: "y"}, form.Var{Name: "z"}, form.Var{Name: "w"}
	p, q := form.Var{Name: "p"}, form.Var{Name: "q"}
	preds := modelPreds()
	pv := New()
	d := domainOf(pv, preds)
	gs := []*Goal{d.Goal(form.Cmp{Op: form.Le, X: x, Y: y}), d.Goal(preds[6]), d.Goal(nil)}
	for _, cube := range domainCubes(len(preds)) {
		d.Valid(cube, gs[0])
		d.Valid(cube, gs[1])
		d.Unsat(cube, gs[2])
	}
	d.EndRound(gs...)
	if d.joined == 0 {
		t.Fatal("no check kept a model")
	}

	goals := []form.Formula{
		form.Cmp{Op: form.Eq, X: z, Y: form.Arith{Op: form.OpAdd, X: x, Y: form.Num{V: 1}}},
		form.Cmp{Op: form.Lt, X: form.Deref{X: x}, Y: y},
		form.Cmp{Op: form.Ne, X: form.Sel{X: form.Deref{X: p}, Field: "g"}, Y: form.Num{V: 0}},
		form.Cmp{Op: form.Ne, X: form.AddrOf{X: z}, Y: p},
		form.Cmp{Op: form.Le, X: form.Idx{X: p, I: x}, Y: form.Deref{X: form.Deref{X: q}}},
		form.Cmp{Op: form.Gt, X: form.Arith{Op: form.OpMul, X: x, Y: z}, Y: w},
		form.Cmp{Op: form.Eq, X: form.Deref{X: form.AddrOf{X: w}}, Y: w},
		form.Or{Fs: []form.Formula{
			form.Cmp{Op: form.Eq, X: form.Deref{X: p}, Y: form.Sel{X: form.Deref{X: q}, Field: "f"}},
			form.Cmp{Op: form.Lt, X: form.Arith{Op: form.OpSub, X: y, Y: x}, Y: form.Neg{X: w}},
		}},
	}
	var th theory
	m := &th.m
	compared, extended, falsified := 0, 0, 0
	for _, f := range goals {
		g := d.Goal(f)
		notF := form.NNF(form.MkNot(f))
		justified := map[uint64]bool{}
		for i := range d.models[:d.joined] {
			sm := &d.models[i]
			m.load(pv.terms.snapshot(), d.vals[sm.vals[0]:sm.vals[1]], d.rows[sm.rows[0]:sm.rows[1]])
			n := len(m.seen)
			got := m.eval(d.pr.nodes, d.pr.occs, g.root)
			if len(m.seen) > n {
				extended++
				if !m.check() {
					continue
				}
			}
			want, err := newFormModel(m, pv.terms).formula(notF)
			if err != nil || got != want {
				t.Fatalf("%s under stored model %d: compiled %v, form-level %v (%v)", notF, i, got, want, err)
			}
			compared++
			if got {
				falsified++
				justified[sm.val] = true
				if !slices.Contains(g.cross, sm.val) {
					t.Errorf("%s: the pool lacks the valuation %b of a model that falsifies it", f, sm.val)
				}
			}
		}
		for _, v := range g.cross {
			if !justified[v] {
				t.Errorf("%s: the pool holds the valuation %b, which no stored model that falsifies it has", f, v)
			}
		}
		if len(g.own) != 0 {
			t.Errorf("%s: a goal no check asked holds own models", f)
		}
	}
	t.Logf("%d stored models, %d evaluations compared (%d valued new terms), %d falsified their goal", d.joined, compared, extended, falsified)
	if compared == 0 || extended == 0 || falsified == 0 {
		t.Fatalf("%d evaluations compared, %d valued new terms, %d falsified their goal", compared, extended, falsified)
	}

	values, rows := 0, 0
	snap := pv.terms.snapshot()
	for i := range d.models[:d.joined] {
		sm := &d.models[i]
		vals := slices.Clone(d.vals[sm.vals[0]:sm.vals[1]])
		tab := slices.Clone(d.rows[sm.rows[0]:sm.rows[1]])
		if m.load(snap, vals, tab); !m.check() {
			t.Fatalf("stored model %d no longer checks out", i)
		}
		keys := map[int32]int{}
		for _, mv := range vals {
			keys[snap.terms[mv.term].key]++
		}
		for j := range vals {
			ct := &snap.terms[vals[j].term]
			if (ct.label < 0 && !ct.isNum) || keys[ct.key] > 1 {
				continue
			}
			vals[j].val++
			if m.load(snap, vals, tab); m.check() {
				t.Fatalf("stored model %d with the value of term %d corrupted checks out", i, vals[j].term)
			}
			vals[j].val--
			values++
		}
		for j := range tab {
			tab[j].v++
			if m.load(snap, vals, tab); m.check() {
				t.Fatalf("stored model %d with table row %+v corrupted checks out", i, tab[j])
			}
			tab[j].v--
			rows++
		}
	}
	t.Logf("%d stored values and %d table rows corrupted", values, rows)
	if values == 0 || rows == 0 {
		t.Fatalf("%d stored values and %d table rows corrupted", values, rows)
	}
}
