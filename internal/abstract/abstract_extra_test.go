package abstract

import (
	"strings"
	"testing"

	"predabs/internal/alias"
	"predabs/internal/bp"
	"predabs/internal/cnorm"
	"predabs/internal/cparse"
	"predabs/internal/ctype"
	"predabs/internal/form"
	"predabs/internal/prover"
)

// newAbstractor builds a bare Abstractor for direct F_V/G_V testing.
func newAbstractor(t *testing.T, src string, opts Options) *Abstractor {
	t.Helper()
	prog, err := cparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := ctype.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cnorm.Normalize(info)
	if err != nil {
		t.Fatal(err)
	}
	return &Abstractor{
		res:             res,
		aa:              alias.Analyze(res),
		pv:              prover.New(),
		opts:            opts,
		localPreds:      map[string][]Pred{},
		sigs:            map[string]*Signature{},
		modifiedFormals: map[string]map[string]bool{},
	}
}

func mkPred(t *testing.T, text string) Pred {
	t.Helper()
	e, err := cparse.ParseExpr(text)
	if err != nil {
		t.Fatal(err)
	}
	f, err := form.FromCond(e)
	if err != nil {
		t.Fatal(err)
	}
	return NewPred(text, f)
}

func mkFormula(t *testing.T, text string) form.Formula {
	t.Helper()
	return mkPred(t, text).F
}

func TestFVPrimeImplicantsOnly(t *testing.T) {
	ab := newAbstractor(t, "void f(int x, int y) { x = y; }", DefaultOptions())
	ab.opts.SyntacticHeuristics = false
	preds := []Pred{
		mkPred(t, "x == 1"),
		mkPred(t, "y == 2"),
		mkPred(t, "x < 5"),
	}
	// F(x < 5): {x<5} is an implicant; {x==1} too; but {x==1 & x<5} must be
	// pruned as a superset of both.
	got := ab.fv("f", ab.scopeOf(preds), mkFormula(t, "x < 5"))
	s := got.String()
	if !strings.Contains(s, "{x < 5}") || !strings.Contains(s, "{x == 1}") {
		t.Fatalf("missing singleton implicants: %s", s)
	}
	if strings.Contains(s, "{x == 1} & {x < 5}") || strings.Contains(s, "{x < 5} & {x == 1}") {
		t.Errorf("non-prime implicant in output: %s", s)
	}
	// {y==2} is irrelevant (cone off to check pruning by contradiction
	// path does not add it).
	if strings.Contains(s, "y == 2") {
		t.Errorf("irrelevant predicate in output: %s", s)
	}
}

func TestFVUnderapproximates(t *testing.T) {
	// E(F_V(φ)) must imply φ: sample the output cubes with the prover.
	ab := newAbstractor(t, "void f(int x, int y) { x = y; }", DefaultOptions())
	preds := []Pred{
		mkPred(t, "x > 0"),
		mkPred(t, "x > 10"),
		mkPred(t, "y < 0"),
	}
	phi := mkFormula(t, "x > 5")
	got := ab.fv("f", ab.scopeOf(preds), phi)
	// x > 10 implies x > 5; nothing else does alone.
	if got.String() != "{x > 10}" {
		t.Errorf("F(x>5) = %s, want {x > 10}", got)
	}
}

func TestGVOverapproximates(t *testing.T) {
	ab := newAbstractor(t, "void f(int x, int y) { x = y; }", DefaultOptions())
	preds := []Pred{
		mkPred(t, "x > 0"),
		mkPred(t, "x > 10"),
	}
	// G(x > 5) = ¬F(x <= 5) = ¬(!{x>0}) = {x>0} ... plus any longer cubes
	// pruned: x>5 implies x>0.
	got := ab.gv("f", ab.scopeOf(preds), mkFormula(t, "x > 5"))
	if !strings.Contains(got.String(), "x > 0") {
		t.Errorf("G(x>5) = %s, expected to mention x > 0", got)
	}
}

func TestCubeLengthLimitChangesPrecision(t *testing.T) {
	// Each cube length gets its own Abstractor, as each Abstract call
	// does: a scope record's results hold for one set of options.
	fvAt := func(k int) bp.Expr {
		ab := newAbstractor(t, "void f(int a, int b, int c) { a = b; }", DefaultOptions())
		ab.opts.SyntacticHeuristics = false
		ab.opts.MaxCubeLen = k
		preds := []Pred{
			mkPred(t, "a > 0"),
			mkPred(t, "b > 0"),
			mkPred(t, "c > 0"),
		}
		return ab.fv("f", ab.scopeOf(preds), mkFormula(t, "a + b + c > 0"))
	}
	// Only the 3-cube {a>0 & b>0 & c>0} implies φ.
	weak := fvAt(2)
	if _, ok := weak.(bp.Const); !ok || weak.String() != "false" {
		t.Fatalf("k=2 should find nothing: %s", weak)
	}
	strong := fvAt(3)
	if !strings.Contains(strong.String(), "{a > 0} & {b > 0}") {
		t.Errorf("k=3 should find the triple cube: %s", strong)
	}
}

func TestHavocOnStructAssignment(t *testing.T) {
	src := `
struct pt { int x; int y; };
void f(struct pt a, struct pt b) {
  a = b;
}
`
	preds := `
f:
  a.x > 0, b.x > 0
`
	out, _ := pipeline(t, src, preds, DefaultOptions())
	pr := out.BP.Proc("f")
	// The whole-struct assignment must havoc a.x > 0 (conservatively) and
	// may havoc b.x > 0, but never leave a.x's variable untouched.
	var assign *bp.Stmt
	for _, s := range pr.Stmts {
		if s.Kind == bp.Assign {
			assign = s
		}
	}
	if assign == nil {
		t.Fatalf("struct assignment vanished:\n%s", bp.Print(out.BP))
	}
	touched := false
	for i, v := range assign.Lhs {
		if v == "a.x > 0" {
			if _, isUnknown := assign.Rhs[i].(bp.Unknown); isUnknown {
				touched = true
			}
		}
	}
	if !touched {
		t.Errorf("a.x > 0 not havocked: %s", bp.StmtString(assign))
	}
}

func TestVoidCallResultDiscarded(t *testing.T) {
	src := `
int get(void) {
  int r;
  r = 5;
  return r;
}
void f(void) {
  get();
}
`
	preds := `
get:
  r == 5
`
	out, _ := pipeline(t, src, preds, DefaultOptions())
	f := out.BP.Proc("f")
	var call *bp.Stmt
	for _, s := range f.Stmts {
		if s.Kind == bp.Call {
			call = s
		}
	}
	if call == nil {
		t.Fatal("call missing")
	}
	// get's E_r = {r == 5}: one return slot must still be received.
	if len(call.CallLhs) != 1 {
		t.Errorf("call shape: %s", bp.StmtString(call))
	}
}

func TestAssignCommentsForNewton(t *testing.T) {
	out, _ := pipeline(t, partitionSrc, partitionPreds, DefaultOptions())
	pr := out.BP.Proc("partition")
	for _, s := range pr.Stmts {
		if s.Kind == bp.Assign && s.Origin == nil {
			if s.Comment != "post-call update" {
				t.Errorf("assignment without origin and not a post-call update: %s // %s",
					bp.StmtString(s), s.Comment)
			}
		}
	}
}

func TestEnforceContainsCongruenceCubes(t *testing.T) {
	// For predicates this==h and this->next==x and h->next==x, the enforce
	// invariant must rule out this==h & this->next==x & !(h->next==x).
	src := `
struct node { struct node* next; };
void f(struct node* this, struct node* h, struct node* x) {
  this = h;
}
`
	preds := `
f:
  this == h, this->next == x, h->next == x
`
	out, _ := pipeline(t, src, preds, DefaultOptions())
	pr := out.BP.Proc("f")
	if pr.Enforce == nil {
		t.Fatal("enforce missing")
	}
	s := pr.Enforce.String()
	if !strings.Contains(s, "{this == h}") {
		t.Errorf("enforce lacks the congruence constraint: %s", s)
	}
}

func TestFOnAtomsStillSound(t *testing.T) {
	opts := DefaultOptions()
	opts.FOnAtoms = true
	out, _ := pipeline(t, partitionSrc, partitionPreds, opts)
	// The F-on-atoms abstraction must still produce a valid program with
	// the same exact updates for prev = curr.
	printed := bp.Print(out.BP)
	if !strings.Contains(printed, "{prev == NULL}, {prev->val > v} := {curr == NULL}, {curr->val > v};") {
		t.Errorf("prev = curr update lost precision under F-on-atoms:\n%s", printed)
	}
}
