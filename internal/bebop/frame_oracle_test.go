package bebop

import (
	"fmt"

	"predabs/internal/bp"
)

// frameRelation is an assignment's transition relation (current → next)
// as Bebop built it before its images dropped frame conditions: each
// assigned slot's next column equals its right-hand side, every other
// slot's next column equals its current one, and enforce holds on the
// next columns. It is kept as the oracle of assignImage.
func (c *Checker) frameRelation(pi *procInfo, s *bp.Stmt) int {
	assigned := make([]bool, len(pi.slots))
	rel := c.m.True()
	nondet := 0
	for i, name := range s.Lhs {
		slot, ok := pi.scope[name]
		if !ok {
			continue
		}
		assigned[slot.pos] = true
		val := c.exprBDD(pi, s.Rhs[i], colCurrent, &nondet)
		rel = c.m.And(rel, c.m.Iff(c.m.Var(slot.col(colNext)), val))
	}
	for _, sl := range pi.slots {
		if !assigned[sl.pos] {
			rel = c.m.And(rel, c.m.Iff(c.m.Var(sl.col(colNext)), c.m.Var(sl.col(colCurrent))))
		}
	}
	if pi.proc.Enforce != nil {
		rel = c.m.And(rel, c.exprBDD(pi, pi.proc.Enforce, colNext, nil))
	}
	return c.m.Exists(rel, c.scratchNondet[:nondet])
}

// frameImage applies a frameRelation to path edges: conjoin, quantify
// every current column, rename every next column back.
func (c *Checker) frameImage(pi *procInfo, pe, rel int) int {
	ex := c.m.Exists(c.m.And(pe, rel), colVars(pi.slots, colCurrent))
	return c.m.Replace(ex, renameMap(pi.slots, colNext, colCurrent))
}

// AssignImagesMatchFrameOracle applies every assignment the fixpoint
// reached to its path edges twice, with assignImage and with the frame
// oracle, and requires the same BDD node from both. It returns the
// number of assignments compared.
func (c *Checker) AssignImagesMatchFrameOracle() (int, error) {
	n := 0
	for _, pr := range c.Prog.Procs {
		pi := c.procs[pr.Name]
		for i, s := range pr.Stmts {
			pe := pi.pathEdges[i]
			if s.Kind != bp.Assign || pe == 0 {
				continue
			}
			got := c.assignImage(pi, i, pe)
			if want := c.frameImage(pi, pe, c.frameRelation(pi, s)); got != want {
				return n, fmt.Errorf("%s:%d (%s): image %d, frame oracle %d", pr.Name, i, bp.StmtString(s), got, want)
			}
			n++
		}
	}
	return n, nil
}
