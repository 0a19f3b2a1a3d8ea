package bebop

import (
	"slices"

	"predabs/internal/bp"
	"predabs/internal/trace"
)

// Step is one element of a counterexample trace: a statement executed in
// some procedure, with the state before it. State maps each name in scope
// in that procedure to the value of the variable it names there: where a
// local or parameter shadows a global, the local's or parameter's, as in
// InvariantRows.
type Step struct {
	Proc  string
	Stmt  int
	BP    *bp.Stmt
	State map[string]bool
}

// The trace search's bounds: the configurations it may try, and how many
// calls below the entry procedure it may descend.
const (
	traceFuel     = 500000
	traceMaxDepth = 64
)

// traceSearcher performs a depth-first search for a concrete path to a
// failing assertion, pruned by Bebop's reachable-state sets so it only
// explores states the fixpoint proved reachable.
//
// A state is one []bool over a procedure's scope slots (procInfo.slots).
// The search never writes a state after building it, so branches, path
// steps and the visited set share states freely.
type traceSearcher struct {
	c      *Checker
	target Failure
	fuel   int
	// vals is the BDD variable assignment inReach evaluates Reach under.
	vals []bool
	// ctxs numbers call-site chains; 0 is the entry's empty chain.
	ctxs    map[callSite]int
	visited map[visitKey][][]bool
	states  int // configurations entered into visited
	found   []pathStep
	// rowBuf holds the row of values the search tries next (row).
	rowBuf []bool
}

// callSite extends the call-site chain ctx by the call at (pi, pc).
type callSite struct {
	ctx int
	pi  *procInfo
	pc  int
}

// visitKey buckets configurations. A call-site chain fixes the procedure
// and the call depth, so (chain, pc, state) is the whole configuration;
// the states in one bucket are compared in full.
type visitKey struct {
	ctx, pc int
	hash    uint64
}

// pathStep is one step of the path under construction.
type pathStep struct {
	pi *procInfo
	pc int
	st []bool
}

// contFn is the continuation a return statement invokes with the
// callee's final state and its return values.
type contFn func(st, rets []bool, path []pathStep) bool

// Trace reconstructs a concrete execution path from the entry procedure
// to the failing assertion. ok is false if the search exhausted its
// budget (which should not happen for genuine failures at Bebop scale).
func (c *Checker) Trace(entry string, f Failure) ([]Step, bool) {
	span := c.tr.Begin("bebop", "trace")
	ts := &traceSearcher{
		c:       c,
		target:  f,
		fuel:    traceFuel,
		vals:    make([]bool, c.m.NumVars()),
		ctxs:    map[callSite]int{},
		visited: map[visitKey][][]bool{},
	}
	steps := ts.search(c.procs[entry])
	span.End(trace.Int("steps", len(steps)), trace.Int("states", ts.states))
	return steps, steps != nil
}

// search tries each state in Reach(entry, 0) as the initial state and
// renders the first path found.
func (ts *traceSearcher) search(pi *procInfo) []Step {
	// Returning from the entry procedure ends a path that missed the
	// target.
	fallOff := func([]bool, []bool, []pathStep) bool { return false }
	for _, row := range ts.c.m.AllSat(ts.c.reachable(pi, 0), colVars(pi.slots, colCurrent)) {
		st := make([]bool, len(row))
		for i, b := range row {
			st[i] = b == 1
		}
		if !ts.step(pi, 0, st, 0, 0, fallOff, nil) {
			continue
		}
		out := make([]Step, len(ts.found))
		for i, p := range ts.found {
			state := make(map[string]bool, len(p.pi.slots))
			for j, s := range p.pi.slots {
				state[s.name] = p.st[j]
			}
			out[i] = Step{Proc: p.pi.proc.Name, Stmt: p.pc, BP: p.pi.proc.Stmts[p.pc], State: state}
		}
		return out
	}
	return nil
}

// inReach checks that a concrete state is inside Reach(pi, stmt).
func (ts *traceSearcher) inReach(pi *procInfo, stmt int, st []bool) bool {
	for i, s := range pi.slots {
		ts.vals[s.col(colCurrent)] = st[i]
	}
	return ts.c.m.Eval(ts.c.reachable(pi, stmt), ts.vals)
}

// visit records the configuration and reports whether it is new.
func (ts *traceSearcher) visit(ctx, pc int, st []bool) bool {
	h := uint64(14695981039346656037) // FNV-1a
	for _, b := range st {
		if b {
			h ^= 1
		}
		h *= 1099511628211
	}
	k := visitKey{ctx: ctx, pc: pc, hash: h}
	for _, seen := range ts.visited[k] {
		if slices.Equal(seen, st) {
			return false
		}
	}
	ts.visited[k] = append(ts.visited[k], st)
	ts.states++
	return true
}

// context numbers the call-site chain ctx extended by the call at (pi, pc).
func (ts *traceSearcher) context(ctx int, pi *procInfo, pc int) int {
	site := callSite{ctx, pi, pc}
	id, ok := ts.ctxs[site]
	if !ok {
		id = len(ts.ctxs) + 1
		ts.ctxs[site] = id
	}
	return id
}

// valSet is the set of values an expression can take in a state, in
// the order the search tries them: the first n of first, !first.
type valSet struct {
	n     int
	first bool
}

func one(v bool) valSet { return valSet{1, v} }

// at returns the i-th value, i < n.
func (vs valSet) at(i int) bool { return vs.first != (i == 1) }

// has reports whether v is in the set.
func (vs valSet) has(v bool) bool { return vs.n == 2 || vs.n == 1 && vs.first == v }

// add appends v unless the set holds it already.
func (vs valSet) add(v bool) valSet {
	switch {
	case vs.n == 0:
		return one(v)
	case vs.n == 1 && vs.first != v:
		vs.n = 2
	}
	return vs
}

// eval evaluates an expression in state st under all resolutions of *
// and unresolved choose, returning the set of possible values in the
// order the search tries them.
func (pi *procInfo) eval(e bp.Expr, st []bool) valSet {
	switch e := e.(type) {
	case bp.Const:
		return one(e.Val)
	case bp.Ref:
		s, ok := pi.scope[e.Name]
		return one(ok && st[s.pos])
	case bp.Unknown:
		return valSet{2, false}
	case bp.Not:
		var out valSet
		xs := pi.eval(e.X, st)
		for i := 0; i < xs.n; i++ {
			out = out.add(!xs.at(i))
		}
		return out
	case bp.Bin:
		xs := pi.eval(e.X, st)
		ys := pi.eval(e.Y, st)
		var out valSet
		for i := 0; i < xs.n; i++ {
			x := xs.at(i)
			for j := 0; j < ys.n; j++ {
				y := ys.at(j)
				var v bool
				switch e.Op {
				case bp.And:
					v = x && y
				case bp.Or:
					v = x || y
				case bp.Implies:
					v = !x || y
				case bp.Iff:
					v = x == y
				}
				out = out.add(v)
			}
		}
		return out
	case bp.Choose:
		pos := pi.eval(e.Pos, st)
		neg := pi.eval(e.Neg, st)
		var out valSet
		for i := 0; i < pos.n; i++ {
			if pos.at(i) {
				out = out.add(true)
				continue
			}
			for j := 0; j < neg.n; j++ {
				out = out.add(false)
				if !neg.at(j) {
					out = out.add(true)
				}
			}
		}
		return out
	}
	return one(false)
}

// evalAll appends the value set of each of es in st to sets and
// returns them with the number of rows they expand to: one per
// combination of their values.
func (pi *procInfo) evalAll(es []bp.Expr, st []bool, sets []valSet) ([]valSet, int) {
	rows := 1
	for _, e := range es {
		vs := pi.eval(e, st)
		sets = append(sets, vs)
		rows *= vs.n
	}
	return sets, rows
}

// row expands row k < rows of sets into ts.row and returns it. Rows run
// in the order the search tries them: the first expression's value
// varies slowest. The search reads a row before it descends, so one
// buffer serves every depth.
func (ts *traceSearcher) row(sets []valSet, k int) []bool {
	ts.rowBuf = slices.Grow(ts.rowBuf[:0], len(sets))[:len(sets)]
	for i := len(sets) - 1; i >= 0; i-- {
		ts.rowBuf[i] = sets[i].at(k % sets[i].n)
		k /= sets[i].n
	}
	return ts.rowBuf
}

// set writes vals into st's slots for the names in lhs, in order.
func (pi *procInfo) set(st []bool, lhs []string, vals []bool) {
	for i, name := range lhs {
		st[pi.scope[name].pos] = vals[i]
	}
}

// enforceHolds reports whether some resolution of the procedure's
// enforce invariant holds in st.
func (pi *procInfo) enforceHolds(st []bool) bool {
	return pi.enfC == 1 || pi.eval(pi.proc.Enforce, st).has(true)
}

// step executes from (pi, pc) in state st at call depth depth, under
// the call-site chain ctx, which makes the visited set context-sensitive
// so alternate continuations are explored. Returning true means ts.found
// holds a complete path.
func (ts *traceSearcher) step(pi *procInfo, pc int, st []bool, depth, ctx int, cont contFn, path []pathStep) bool {
	for {
		ts.fuel--
		if ts.fuel <= 0 || depth > traceMaxDepth || pc >= len(pi.proc.Stmts) {
			return false
		}
		if !ts.visit(ctx, pc, st) || !ts.inReach(pi, pc, st) {
			return false
		}
		s := pi.proc.Stmts[pc]
		path = append(path, pathStep{pi, pc, st})

		// Target reached?
		if pi.proc.Name == ts.target.Proc && pc == ts.target.Stmt && s.Kind == bp.Assert &&
			pi.eval(s.Cond, st).has(false) {
			ts.found = slices.Clone(path)
			return true
		}

		switch s.Kind {
		case bp.Skip:
			pc++
		case bp.Assume, bp.Assert:
			// A failing assert that is not the target ends the path.
			if !pi.eval(s.Cond, st).has(true) {
				return false
			}
			pc++
		case bp.Goto:
			for _, next := range pi.succs[pc] {
				if ts.step(pi, next, st, depth, ctx, cont, path) {
					return true
				}
			}
			return false
		case bp.Assign:
			var buf [4]valSet
			sets, rows := pi.evalAll(s.Rhs, st, buf[:0])
			for k := 0; k < rows; k++ {
				next := slices.Clone(st)
				pi.set(next, s.Lhs, ts.row(sets, k))
				if pi.enforceHolds(next) && ts.step(pi, pc+1, next, depth, ctx, cont, path) {
					return true
				}
			}
			return false
		case bp.Call:
			callee := ts.c.procs[s.Callee]
			inner := ts.context(ctx, pi, pc)
			back := func(calleeSt, rets []bool, path []pathStep) bool {
				// Back in the caller: take the callee's globals, bind
				// the returns, continue.
				next := slices.Clone(st)
				copy(next, calleeSt[:len(ts.c.glob)])
				pi.set(next, s.CallLhs, rets)
				return pi.enforceHolds(next) && ts.step(pi, pc+1, next, depth, ctx, cont, path)
			}
			var buf [4]valSet
			sets, rows := pi.evalAll(s.Args, st, buf[:0])
			for k := 0; k < rows; k++ {
				for _, init := range ts.calleeInits(callee, ts.row(sets, k), st) {
					if ts.step(callee, 0, init, depth+1, inner, back, path) {
						return true
					}
				}
			}
			return false
		case bp.Return:
			var buf [4]valSet
			sets, rows := pi.evalAll(s.RetVals, st, buf[:0])
			for k := 0; k < rows; k++ {
				if cont(st, ts.row(sets, k), path) {
					return true
				}
			}
			return false
		}
	}
}

// calleeInits enumerates the callee's entry states for a call from
// state st: the caller's globals, the params bound to args, and each
// valuation of the locals the callee's entry reachable set allows.
func (ts *traceSearcher) calleeInits(pi *procInfo, args, st []bool) [][]bool {
	c := ts.c
	f := c.reachable(pi, 0)
	for i, g := range c.glob {
		f = c.m.Restrict(f, g.col(colCurrent), st[i])
	}
	for i, p := range pi.params {
		f = c.m.Restrict(f, p.col(colCurrent), args[i])
	}
	var out [][]bool
	for _, row := range c.m.AllSat(f, colVars(pi.locals, colCurrent)) {
		init := make([]bool, 0, len(pi.slots))
		init = append(init, st[:len(c.glob)]...)
		init = append(init, args...)
		for _, b := range row {
			init = append(init, b == 1)
		}
		out = append(out, init)
	}
	return out
}
