package bdd

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestMatchesReference drives the flat-table Manager and the map-based
// reference through one seeded operation sequence and requires, after
// every operation, the same result and the same node count. Bebop's
// -bdd-max-nodes cut-off and its node-count metric depend on this order.
// It runs with the default computed table and with a one-slot table,
// where almost every entry is evicted before it is read.
func TestMatchesReference(t *testing.T) {
	t.Run("default", matchesReference)
	t.Run("one-slot", func(t *testing.T) {
		defer oneSlotTable()()
		matchesReference(t)
	})
}

// oneSlotTable shrinks the computed table of managers made from now on
// to its minimum, one slot, and returns the undo.
func oneSlotTable() func() {
	n := maxCacheSlots
	maxCacheSlots = 1
	return func() { maxCacheSlots = n }
}

func matchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(6)
		m, ref := New(n), newRef(n)
		pool := []int{0, 1}
		pick := func() int { return pool[r.Intn(len(pool))] }
		// randVars draws up to k variables, some outside the support or
		// the manager's range.
		randVars := func(k int) []int {
			vs := make([]int, r.Intn(k+1))
			for i := range vs {
				vs[i] = r.Intn(m.NumVars()+3) - 1
			}
			return vs
		}
		// distinctVars draws up to k distinct in-range variables.
		distinctVars := func(k int) []int {
			return r.Perm(m.NumVars())[:r.Intn(min(k, m.NumVars())+1)]
		}
		for step := 0; step < 700; step++ {
			var op string
			var got, want int
			a, b := pick(), pick()
			switch k := r.Intn(13); k {
			case 0:
				v := r.Intn(m.NumVars())
				op, got, want = "Var", m.Var(v), ref.Var(v)
			case 1:
				op, got, want = "And", m.And(a, b), ref.And(a, b)
			case 2:
				op, got, want = "Or", m.Or(a, b), ref.Or(a, b)
			case 3:
				op, got, want = "Xor", m.Xor(a, b), ref.Xor(a, b)
			case 4:
				op, got, want = "Not", m.Not(a), ref.Not(a)
			case 5:
				op, got, want = "Iff", m.Iff(a, b), ref.Iff(a, b)
			case 6:
				op, got, want = "Implies", m.Implies(a, b), ref.Implies(a, b)
			case 7:
				if m.NumVars() >= 12 {
					continue
				}
				op, got, want = "AddVar", m.AddVar(), ref.AddVar()
			case 8:
				vs := randVars(4)
				op, got, want = "Exists", m.Exists(a, vs), ref.Exists(a, vs)
			case 9:
				rn := overlappingRename(r, m.NumVars())
				op, got, want = "Replace", m.Replace(a, rn), ref.Replace(a, rn)
			case 10:
				v, val := r.Intn(m.NumVars()+1), r.Intn(2) == 0
				op, got, want = "Restrict", m.Restrict(a, v, val), ref.Restrict(a, v, val)
			case 11:
				vs := distinctVars(5)
				if g, w := m.AllSat(a, vs), ref.AllSat(a, vs); !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d step %d: AllSat(%d, %v) rows %v, reference %v", seed, step, a, vs, g, w)
				}
				op = "AllSat"
			case 12:
				vs := randVars(5)
				op, got, want = "AndExists", m.AndExists(a, b, vs), ref.AndExists(a, b, vs)
			}
			if got != want || m.NumNodes() != ref.NumNodes() {
				t.Fatalf("seed %d step %d: %s = %d with %d nodes, reference %d with %d nodes",
					seed, step, op, got, m.NumNodes(), want, ref.NumNodes())
			}
			if got > 1 && op != "AddVar" {
				pool = append(pool, got)
			}
		}
	}
}

// TestAndExistsIsExistsOfAnd checks the relational product against its
// definition on random BDDs, with variable lists that repeat variables
// or name ones outside the manager.
func TestAndExistsIsExistsOfAnd(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		m := New(4 + r.Intn(5))
		a, _ := randomFormula(m, r, 5)
		b, _ := randomFormula(m, r, 5)
		vs := make([]int, r.Intn(7))
		for i := range vs {
			vs[i] = r.Intn(m.NumVars()+4) - 2
		}
		if len(vs) > 1 && r.Intn(2) == 0 {
			vs[1] = vs[0]
		}
		if got, want := m.AndExists(a, b, vs), m.Exists(m.And(a, b), vs); got != want {
			t.Fatalf("trial %d: AndExists(%d, %d, %v) = %d, Exists(And) = %d", trial, a, b, vs, got, want)
		}
	}
}

// overlappingRename returns an injective renaming whose source and
// target ranges overlap: a shift of a variable range by ±1 or a cycle.
func overlappingRename(r *rand.Rand, n int) map[int]int {
	rn := map[int]int{}
	lo := r.Intn(n - 1)
	hi := lo + 1 + r.Intn(n-lo-1) // lo < hi < n
	switch r.Intn(3) {
	case 0: // v → v+1 on [lo, hi)
		for v := lo; v < hi; v++ {
			rn[v] = v + 1
		}
	case 1: // v → v-1 on (lo, hi]
		for v := lo + 1; v <= hi; v++ {
			rn[v] = v - 1
		}
	default: // the cycle lo → lo+1 → … → hi → lo
		for v := lo; v < hi; v++ {
			rn[v] = v + 1
		}
		rn[hi] = lo
	}
	return rn
}

// TestScratchGenerationWrap checks that a wrapped generation counter
// does not revive stale per-call entries, and that the wrap keeps the
// cross-call ones.
func TestScratchGenerationWrap(t *testing.T) {
	m, ref := New(5), newRef(5)
	f := m.Xor(m.And(m.Var(0), m.Var(2)), m.Or(m.Var(1), m.Not(m.Var(4))))
	rf := ref.Xor(ref.And(ref.Var(0), ref.Var(2)), ref.Or(ref.Var(1), ref.Not(ref.Var(4))))
	// Tag entries with generations 1 and 2, then set the counter to its
	// last value so the next call wraps to 1 and would tag 1 again
	// without the drop.
	m.Exists(f, []int{2})
	ref.Exists(rf, []int{2})
	m.AndExists(f, m.Var(3), []int{2})
	ref.AndExists(rf, ref.Var(3), []int{2})
	m.gen = maxGen
	kept := 0
	for _, e := range m.cache {
		if e.tag != 0 && e.tag <= opNot {
			kept++
		}
	}
	for i, vs := range [][]int{{1}, {0, 3}, {2}} {
		if got, want := m.Exists(f, vs), ref.Exists(rf, vs); got != want {
			t.Fatalf("Exists %v after wrap = %d, want %d", vs, got, want)
		}
		if i == 0 {
			for _, e := range m.cache {
				if e.tag > opNot && e.tag>>3 != m.gen {
					t.Fatalf("entry of generation %d survived the wrap to %d", e.tag>>3, m.gen)
				}
				if e.tag != 0 && e.tag <= opNot {
					kept--
				}
			}
			if kept > 0 {
				t.Fatalf("the wrap dropped %d cross-call entries", kept)
			}
		}
		g, rg := m.Var(3), ref.Var(3)
		if got, want := m.AndExists(f, g, vs), ref.AndExists(rf, rg, vs); got != want {
			t.Fatalf("AndExists %v after wrap = %d, want %d", vs, got, want)
		}
	}
}

// TestTableSizeKeepsNodeIDs runs one seeded operation sequence with the
// default computed table and with a one-slot table, and requires the
// same results and the same node store, id for id.
func TestTableSizeKeepsNodeIDs(t *testing.T) {
	run := func() ([]int, []node, int) {
		r := rand.New(rand.NewSource(5))
		m := New(10)
		pool := []int{0, 1}
		var out []int
		for step := 0; step < 3000; step++ {
			a, b := pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]
			vs := r.Perm(m.NumVars())[:r.Intn(4)]
			var got int
			switch r.Intn(8) {
			case 0:
				got = m.Var(r.Intn(m.NumVars()))
			case 1:
				got = m.And(a, b)
			case 2:
				got = m.Or(a, b)
			case 3:
				got = m.Iff(a, b)
			case 4:
				got = m.Exists(a, vs)
			case 5:
				got = m.AndExists(a, b, vs)
			case 6:
				got = m.Replace(a, overlappingRename(r, m.NumVars()))
			case 7:
				got = m.Restrict(a, r.Intn(m.NumVars()), r.Intn(2) == 0)
			}
			out = append(out, got)
			if got > 1 {
				pool = append(pool, got)
			}
		}
		return out, m.nodes, len(m.cache)
	}
	want, wantNodes, slots := run()
	defer oneSlotTable()()
	got, gotNodes, minSlots := run()
	if minSlots != 1 || slots <= 1 {
		t.Fatalf("computed tables of %d and %d slots, want many and one", slots, minSlots)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a one-slot computed table changed an operation's result")
	}
	if !reflect.DeepEqual(gotNodes, wantNodes) {
		t.Fatalf("a one-slot computed table changed the node store (%d nodes, want %d)", len(gotNodes), len(wantNodes))
	}
}

// TestWarmOperationsAllocateNothing pins the per-call scratch: once the
// manager is warm, quantifying, renaming, restricting and conjoining
// existing nodes must not allocate.
func TestWarmOperationsAllocateNothing(t *testing.T) {
	m := New(8)
	r := rand.New(rand.NewSource(7))
	f, _ := randomFormula(m, r, 5)
	g, _ := randomFormula(m, r, 5)
	vars := []int{1, 4, 6}
	rename := map[int]int{0: 1, 1: 2, 2: 0}
	cases := []struct {
		name string
		fn   func()
	}{
		{"Exists", func() { m.Exists(f, vars) }},
		{"AndExists", func() { m.AndExists(f, g, vars) }},
		{"Replace", func() { m.Replace(f, rename) }},
		{"Restrict", func() { m.Restrict(f, 3, true) }},
		{"And", func() { m.And(f, g) }},
	}
	for _, c := range cases {
		c.fn()
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("warm %s: %v allocs/op, want 0", c.name, n)
		}
	}
}

// TestNodeStoreFullPanics checks the int32 capacity guard (lowered here
// so the test need not build 2^31 nodes).
func TestNodeStoreFullPanics(t *testing.T) {
	defer func(n int) { maxNodes = n }(maxNodes)
	m := New(3)
	maxNodes = m.NumNodes() + 2
	m.Var(0)
	m.Var(1)
	m.Var(1) // hash-consed: no new node
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "node store full") {
			t.Fatalf("panic %q, want the node-store-full message", msg)
		}
		if m.NumNodes() != maxNodes {
			t.Fatalf("%d nodes after the guard, want %d", m.NumNodes(), maxNodes)
		}
	}()
	m.Var(2)
	t.Fatal("mk passed the node cap without panicking")
}
