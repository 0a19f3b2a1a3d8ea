package abstract

import (
	"slices"
	"strings"
	"testing"

	"predabs/internal/alias"
	"predabs/internal/bp"
	"predabs/internal/cnorm"
	"predabs/internal/cparse"
	"predabs/internal/ctype"
	"predabs/internal/prover"
)

// pipeline runs the full frontend + abstraction.
func pipeline(t *testing.T, src, predSrc string, opts Options) (*Result, *prover.Prover) {
	t.Helper()
	prog, err := cparse.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := ctype.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	res, err := cnorm.Normalize(info)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	aa := alias.Analyze(res)
	sections, err := cparse.ParsePredFile(predSrc)
	if err != nil {
		t.Fatalf("predicates: %v", err)
	}
	pv := prover.New()
	out, err := Abstract(res, aa, pv, sections, opts)
	if err != nil {
		t.Fatalf("abstract: %v", err)
	}
	return out, pv
}

const partitionSrc = `
typedef struct cell { int val; struct cell* next; } *list;
list partition(list *l, int v) {
  list curr, prev, newl, nextCurr;
  curr = *l;
  prev = NULL;
  newl = NULL;
  while (curr != NULL) {
    nextCurr = curr->next;
    if (curr->val > v) {
      if (prev != NULL) { prev->next = nextCurr; }
      if (curr == *l) { *l = nextCurr; }
      curr->next = newl;
L:    newl = curr;
    } else {
      prev = curr;
    }
    curr = nextCurr;
  }
  return newl;
}
`

const partitionPreds = `
partition:
  curr == NULL, prev == NULL, curr->val > v, prev->val > v
`

// TestFigure1Partition checks the key transfer functions of Figure 1(b).
func TestFigure1Partition(t *testing.T) {
	out, _ := pipeline(t, partitionSrc, partitionPreds, DefaultOptions())
	printed := bp.Print(out.BP)
	t.Logf("boolean program:\n%s", printed)

	pr := out.BP.Proc("partition")
	if pr == nil {
		t.Fatal("no partition procedure")
	}
	// The paper's partition() has no parameters and no returns: every
	// predicate mentions a local.
	if len(pr.Params) != 0 || pr.NRet != 0 {
		t.Errorf("params %v, nret %d; want none", pr.Params, pr.NRet)
	}

	find := func(sub string) bool { return strings.Contains(printed, sub) }

	// prev = NULL: {prev==NULL} := true; {prev->val>v} := *.
	if !find("{prev == NULL}") {
		t.Errorf("missing prev==NULL variable")
	}
	// prev = NULL: {prev==NULL} := true. The paper's Figure 1(b) shows
	// {prev->val>v} := unknown(); our prover additionally derives a
	// conditional value through NULL congruence (total-memory semantics,
	// as in Simplify), which is sound and strictly more precise, so we
	// only pin the first component.
	var prevNull *bp.Stmt
	for _, s := range pr.Stmts {
		if s.Kind == bp.Assign && strings.Contains(s.Comment, "prev = NULL") {
			prevNull = s
		}
	}
	if prevNull == nil {
		t.Fatal("no abstraction of prev = NULL")
	}
	okTrue := false
	for i, v := range prevNull.Lhs {
		if v == "prev == NULL" {
			if c, ok := prevNull.Rhs[i].(bp.Const); ok && c.Val {
				okTrue = true
			}
		}
	}
	if !okTrue {
		t.Errorf("prev = NULL should set {prev == NULL} := true: %s", bp.StmtString(prevNull))
	}

	wantFragments := []string{
		// prev = curr: exact copies
		"{prev == NULL}, {prev->val > v} := {curr == NULL}, {curr->val > v};",
		// curr = nextCurr invalidates both curr predicates
		"{curr == NULL}, {curr->val > v} := *, *;",
		// while guard
		"assume(!{curr == NULL});",
		"assume({curr == NULL});",
		// if (curr->val > v) guard
		"assume({curr->val > v});",
		"assume(!{curr->val > v});",
		// if (prev != NULL) guard
		"assume(!{prev == NULL});",
	}
	for _, frag := range wantFragments {
		if !find(frag) {
			t.Errorf("missing fragment %q in:\n%s", frag, printed)
		}
	}

	// newl = NULL, prev->next = nextCurr, curr->next = newl, *l = nextCurr
	// must all be skips.
	for _, c := range []string{"newl = NULL", "prev->next = nextCurr", "curr->next = newl", "*l = nextCurr"} {
		found := false
		for _, s := range pr.Stmts {
			if s.Kind == bp.Skip && strings.Contains(s.Comment, c) {
				found = true
			}
		}
		if !found {
			t.Errorf("statement %q should abstract to skip", c)
		}
	}
}

const fooBarSrc = `
int bar(int* q, int y) {
  int l1, l2;
  l1 = y;
  l2 = y - 1;
  if (*q <= y) { l1 = *q; }
  return l1;
}

void foo(int* p, int x) {
  int r;
  if (*p <= x) {
    *p = x;
  } else {
    *p = *p + x;
  }
  r = bar(p, x);
}
`

const fooBarPreds = `
bar:
  y >= 0, *q <= y, y == l1, y > l2
foo:
  *p <= 0, x == 0, r == 0
`

// TestFigure2Signatures checks E_f and E_r from Section 4.5.2.
func TestFigure2Signatures(t *testing.T) {
	out, _ := pipeline(t, fooBarSrc, fooBarPreds, DefaultOptions())
	// The signature pass of Abstract, on a fresh Abstractor.
	ab := newAbstractor(t, fooBarSrc, DefaultOptions())
	sections, err := cparse.ParsePredFile(fooBarPreds)
	if err != nil {
		t.Fatal(err)
	}
	if err := ab.loadPredicates(sections); err != nil {
		t.Fatal(err)
	}
	ab.computeModifiedFormals()
	sig := ab.signature(ab.res.Prog.Func("bar"))
	if sig == nil {
		t.Fatal("no signature for bar")
	}
	efNames := predNames(sig.Ef)
	erNames := predNames(sig.Er)
	wantEf := map[string]bool{"y >= 0": true, "*q <= y": true}
	wantEr := map[string]bool{"y == l1": true, "*q <= y": true}
	if !sameSet(efNames, wantEf) {
		t.Errorf("E_f = %v, want {y >= 0, *q <= y}", efNames)
	}
	if !sameSet(erNames, wantEr) {
		t.Errorf("E_r = %v, want {y == l1, *q <= y}", erNames)
	}
	// The boolean bar takes the two formal predicates and returns two
	// values.
	pr := out.BP.Proc("bar")
	if len(pr.Params) != 2 || pr.NRet != 2 {
		t.Errorf("bar: params %v nret %d", pr.Params, pr.NRet)
	}
}

func predNames(ps []Pred) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

func sameSet(got []string, want map[string]bool) bool {
	if len(got) != len(want) {
		return false
	}
	for _, g := range got {
		if !want[g] {
			return false
		}
	}
	return true
}

// TestFigure2CallAbstraction checks the call translation of Section 4.5.3:
// actuals choose(F(e'),F(¬e')), temporaries for returns, and the post-call
// update of r==0 and *p<=0 (x==0 is untouched).
func TestFigure2CallAbstraction(t *testing.T) {
	out, _ := pipeline(t, fooBarSrc, fooBarPreds, DefaultOptions())
	printed := bp.Print(out.BP)
	t.Logf("boolean program:\n%s", printed)

	foo := out.BP.Proc("foo")
	var callStmt *bp.Stmt
	var postUpdate *bp.Stmt
	for i, s := range foo.Stmts {
		if s.Kind == bp.Call && s.Callee == "bar" {
			callStmt = s
			if i+1 < len(foo.Stmts) && foo.Stmts[i+1].Kind == bp.Assign {
				postUpdate = foo.Stmts[i+1]
			}
		}
	}
	if callStmt == nil {
		t.Fatalf("no call to bar in:\n%s", printed)
	}
	if len(callStmt.Args) != 2 || len(callStmt.CallLhs) != 2 {
		t.Fatalf("call shape: %s", bp.StmtString(callStmt))
	}
	// One actual is choose({x == 0}, false) — for formal predicate y>=0.
	argStrs := []string{callStmt.Args[0].String(), callStmt.Args[1].String()}
	foundYGe0 := false
	for _, a := range argStrs {
		if a == "choose({x == 0}, false)" {
			foundYGe0 = true
		}
	}
	if !foundYGe0 {
		t.Errorf("expected actual choose({x == 0}, false) for y>=0, got %v", argStrs)
	}
	// The other mentions both *p<=0 and x==0 (for *q<=y → *p<=x).
	foundQle := false
	for _, a := range argStrs {
		if strings.Contains(a, "{*p <= 0}") && strings.Contains(a, "{x == 0}") {
			foundQle = true
		}
	}
	if !foundQle {
		t.Errorf("expected actual over {*p <= 0} and {x == 0}, got %v", argStrs)
	}

	if postUpdate == nil {
		t.Fatalf("no post-call update after %s", bp.StmtString(callStmt))
	}
	updated := map[string]bool{}
	for _, v := range postUpdate.Lhs {
		updated[v] = true
	}
	if !updated["*p <= 0"] || !updated["r == 0"] {
		t.Errorf("post-call update targets %v, want *p<=0 and r==0", postUpdate.Lhs)
	}
	if updated["x == 0"] {
		t.Errorf("x == 0 must not be updated by the call")
	}
	// The updates reference the temporaries and x==0, as in the paper:
	// {*p<=0} := choose(t1 & {x==0}, !t1 & {x==0}).
	for i, v := range postUpdate.Lhs {
		rhs := postUpdate.Rhs[i].String()
		if !strings.Contains(rhs, "t$") || !strings.Contains(rhs, "{x == 0}") {
			t.Errorf("update of %q = %s should use a temp and {x == 0}", v, rhs)
		}
	}
}

// TestFigure2AssignmentAbstraction: *p = *p + x from Section 4.3.
func TestFigure2AssignmentAbstraction(t *testing.T) {
	out, _ := pipeline(t, fooBarSrc, fooBarPreds, DefaultOptions())
	foo := out.BP.Proc("foo")
	var assign *bp.Stmt
	for _, s := range foo.Stmts {
		if s.Kind == bp.Assign && strings.Contains(s.Comment, "*p = (*p) + x") {
			assign = s
		}
	}
	if assign == nil {
		t.Fatal("no abstraction of *p = *p + x")
	}
	// Only {*p <= 0} changes: WP leaves x==0 and r==0 untouched.
	if len(assign.Lhs) != 1 || assign.Lhs[0] != "*p <= 0" {
		t.Fatalf("targets: %v", assign.Lhs)
	}
	rhs := assign.Rhs[0].String()
	want := "choose({*p <= 0} & {x == 0}, !{*p <= 0} & {x == 0})"
	if rhs != want {
		t.Errorf("rhs = %s, want %s", rhs, want)
	}
}

func TestEnforceInvariant(t *testing.T) {
	src := `
void f(int x) {
  x = 1;
  x = 2;
}
`
	preds := `
f:
  x == 1, x == 2
`
	out, _ := pipeline(t, src, preds, DefaultOptions())
	pr := out.BP.Proc("f")
	if pr.Enforce == nil {
		t.Fatal("enforce missing")
	}
	e := pr.Enforce.String()
	if !strings.Contains(e, "{x == 1}") || !strings.Contains(e, "{x == 2}") {
		t.Errorf("enforce = %s", e)
	}
	// The invariant must rule out both-true.
	// !( {x==1} & {x==2} )
	if !strings.Contains(e, "&") {
		t.Errorf("enforce should exclude the conjunction: %s", e)
	}
}

func TestEnforceDisabled(t *testing.T) {
	opts := DefaultOptions()
	opts.EmitEnforce = false
	out, _ := pipeline(t, "void f(int x) { x = 1; }", "f:\n x == 1, x == 2", opts)
	if out.BP.Proc("f").Enforce != nil {
		t.Fatal("enforce emitted despite option")
	}
}

func TestAssertUsesUnderApproximation(t *testing.T) {
	src := `
void f(int x) {
  x = 5;
  assert(x > 0);
}
`
	preds := `
f:
  x == 5
`
	out, _ := pipeline(t, src, preds, DefaultOptions())
	pr := out.BP.Proc("f")
	var as *bp.Stmt
	for _, s := range pr.Stmts {
		if s.Kind == bp.Assert {
			as = s
		}
	}
	if as == nil {
		t.Fatal("no assert")
	}
	// F_V(x>0) over {x==5} is {x == 5}: the assert can only be proven via
	// the predicate.
	if as.Cond.String() != "{x == 5}" {
		t.Errorf("assert cond = %s, want {x == 5}", as.Cond)
	}
}

func TestAssumeUsesOverApproximation(t *testing.T) {
	src := `
void f(int x) {
  assume(x == 3);
  x = x + 1;
}
`
	preds := `
f:
  x > 0
`
	out, _ := pipeline(t, src, preds, DefaultOptions())
	pr := out.BP.Proc("f")
	var asm *bp.Stmt
	for _, s := range pr.Stmts {
		if s.Kind == bp.Assume && strings.Contains(s.Comment, "assume") {
			asm = s
		}
	}
	if asm == nil {
		t.Fatal("no assume")
	}
	// G_V(x==3) = ¬F_V(x≠3); x>0 does not imply x≠3 nor x==3... but
	// ¬(x>0) ⇒ x≠3, so F_V(x≠3) = !{x > 0} and G = {x > 0}.
	if asm.Cond.String() != "{x > 0}" {
		t.Errorf("assume cond = %s, want {x > 0}", asm.Cond)
	}
}

func TestGlobalPredicates(t *testing.T) {
	src := `
int locked;
void acquire(void) {
  locked = 1;
}
void release(void) {
  locked = 0;
}
void main(void) {
  acquire();
  release();
}
`
	preds := `
global:
  locked == 1
`
	out, _ := pipeline(t, src, preds, DefaultOptions())
	if len(out.BP.Globals) != 1 || out.BP.Globals[0] != "locked == 1" {
		t.Fatalf("globals: %v", out.BP.Globals)
	}
	// acquire sets the global to true, release to false.
	acq := out.BP.Proc("acquire")
	foundTrue := false
	for _, s := range acq.Stmts {
		if s.Kind == bp.Assign && len(s.Lhs) == 1 && s.Lhs[0] == "locked == 1" {
			if c, ok := s.Rhs[0].(bp.Const); ok && c.Val {
				foundTrue = true
			}
		}
	}
	if !foundTrue {
		t.Errorf("acquire should set {locked == 1} := true:\n%s", bp.Print(out.BP))
	}
}

func TestGlobalPredicateRejectsLocals(t *testing.T) {
	prog, _ := cparse.Parse("void f(int x) { x = 1; }")
	info, _ := ctype.Check(prog)
	res, _ := cnorm.Normalize(info)
	aa := alias.Analyze(res)
	sections, err := cparse.ParsePredFile("global:\n x == 1")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Abstract(res, aa, prover.New(), sections, DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "non-global") {
		t.Fatalf("got %v", err)
	}
}

func TestSkipUnchangedCutsProverCalls(t *testing.T) {
	// Disable the syntactic heuristics so the cost of recomputing
	// unchanged predicates is visible in the prover-call count.
	opts := DefaultOptions()
	opts.SyntacticHeuristics = false
	_, pvOn := pipeline(t, partitionSrc, partitionPreds, opts)
	opts.SkipUnchanged = false
	_, pvOff := pipeline(t, partitionSrc, partitionPreds, opts)
	if pvOn.Calls() >= pvOff.Calls() {
		t.Errorf("skip-unchanged should reduce prover calls: on=%d off=%d", pvOn.Calls(), pvOff.Calls())
	}
}

func TestGeneratedProgramReparses(t *testing.T) {
	out, _ := pipeline(t, fooBarSrc, fooBarPreds, DefaultOptions())
	printed := bp.Print(out.BP)
	if _, err := bp.Parse(printed); err != nil {
		t.Fatalf("generated program does not reparse: %v\n%s", err, printed)
	}
}

// TestEnumerateCubesOrder pins enumerateCubes against a direct
// recursion over the canonical order (ascending predicates, the
// positive literal first), with a filter that rejects every third
// candidate, and requires the filter to see each candidate in place.
func TestEnumerateCubesOrder(t *testing.T) {
	for n := 0; n <= 6; n++ {
		for size := 1; size <= n+1; size++ {
			var want []literal
			calls := 0
			var rec func(cube []literal, start int)
			rec = func(cube []literal, start int) {
				if len(cube) == size {
					if calls++; calls%3 != 0 {
						want = append(want, cube...)
					}
					return
				}
				for i := start; i < n; i++ {
					for _, pos := range []bool{true, false} {
						rec(append(cube, literal{Pred: i, Pos: pos}), i+1)
					}
				}
			}
			rec(nil, 0)
			calls = 0
			prefix := []literal{{Pred: 9, Pos: true}}
			got := enumerateCubes(slices.Clone(prefix), n, size, func(cube []literal) bool {
				if len(cube) != size {
					t.Fatalf("n=%d size=%d: the filter saw %v", n, size, cube)
				}
				calls++
				return calls%3 != 0
			})
			if !slices.Equal(got[:1], prefix) || !slices.Equal(got[1:], want) {
				t.Fatalf("n=%d size=%d: enumerated %v, want %v after %v", n, size, got, want, prefix)
			}
		}
	}
}
