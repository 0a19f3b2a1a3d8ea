package bp

import (
	"os"
	"strings"
	"testing"
)

const sampleSrc = `
decl g1, {curr==NULL};

void partition(p1) begin
  decl l1, {curr->val>v};
  enforce !(g1 & l1);
 L:
  l1, {curr->val>v} := choose(p1, !p1), *;
  if (*) then
    assume(l1);
    g1 := true;
  else
    assume(!l1);
    skip;
  fi
  while ({curr==NULL}) do
    {curr==NULL} := choose(false, g1);
  od
  assert(!g1 | l1);
  goto L, M;
 M:
  return;
end

bool<2> both(a, b) begin
  return a & b, a | b;
end

bool single(x) begin
  decl t1, t2;
  t1, t2 := both(x, !x);
  return t1 => t2;
end
`

func TestParseSample(t *testing.T) {
	prog, err := Parse(sampleSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(prog.Globals) != 2 {
		t.Fatalf("globals: %v", prog.Globals)
	}
	if prog.Globals[1] != "curr==NULL" {
		t.Fatalf("braced name: %q", prog.Globals[1])
	}
	pr := prog.Proc("partition")
	if pr == nil {
		t.Fatal("partition missing")
	}
	if len(pr.Locals) != 2 || pr.Locals[1] != "curr->val>v" {
		t.Fatalf("locals: %v", pr.Locals)
	}
	if pr.Enforce == nil {
		t.Fatal("enforce missing")
	}
	if prog.Proc("both").NRet != 2 {
		t.Fatal("both should return 2 values")
	}
}

func TestPrintParseFixpoint(t *testing.T) {
	prog, err := Parse(sampleSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p1 := Print(prog)
	prog2, err := Parse(p1)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, p1)
	}
	p2 := Print(prog2)
	if p1 != p2 {
		t.Fatalf("print/parse not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", p1, p2)
	}
}

func TestResolveErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"void f() begin x := true; return; end", "undeclared"},
		{"void f() begin goto nowhere; return; end", "unknown label"},
		{"void f() begin decl a; a := true, false; return; end", "targets"},
		{"void f() begin g(true); return; end", "unknown procedure"},
		{"bool f(a) begin return a; end void h() begin f(true, false); return; end", "takes 1 args"},
		{"bool f(a) begin return; end", "return with 0 values"},
		{"decl g; decl g; void f() begin return; end", "duplicate global"},
		{"void f(a) begin decl a; return; end", "duplicate variable"},
		{"void f() begin L: skip; L: skip; return; end", "duplicate label"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: got %v, want error containing %q", c.src, err, c.want)
		}
	}
}

func TestIfDesugar(t *testing.T) {
	prog, err := Parse(`
void f(a) begin
  decl x;
  if (a) then x := true; else x := false; fi
  return;
end`)
	if err != nil {
		t.Fatal(err)
	}
	pr := prog.Proc("f")
	// goto Lt,Lf / assume(a) / assign / goto Le / assume(!a) / assign /
	// skip / return
	if pr.Stmts[0].Kind != Goto || len(pr.Stmts[0].Targets) != 2 {
		t.Fatalf("stmt0: %s", StmtString(pr.Stmts[0]))
	}
	if pr.Stmts[1].Kind != Assume {
		t.Fatalf("stmt1: %s", StmtString(pr.Stmts[1]))
	}
}

func TestNondeterministicIf(t *testing.T) {
	prog, err := Parse(`
void f() begin
  decl x;
  if (*) then x := true; else x := false; fi
  return;
end`)
	if err != nil {
		t.Fatal(err)
	}
	pr := prog.Proc("f")
	// Both assumes must be assume(true).
	count := 0
	for _, s := range pr.Stmts {
		if s.Kind == Assume {
			if c, ok := s.Cond.(Const); !ok || !c.Val {
				t.Errorf("nondet if: assume should be true, got %s", s.Cond)
			}
			count++
		}
	}
	if count != 2 {
		t.Fatalf("expected 2 assumes, got %d", count)
	}
}

func TestExprPrecedence(t *testing.T) {
	prog, err := Parse(`
void f(a, b, c) begin
  assume(a & b | c);
  assume(!a | b => c <=> a);
  return;
end`)
	if err != nil {
		t.Fatal(err)
	}
	s0 := prog.Proc("f").Stmts[0].Cond.String()
	if s0 != "(a & b) | c" {
		t.Errorf("precedence: %s", s0)
	}
	s1 := prog.Proc("f").Stmts[1].Cond.String()
	if s1 != "((!a | b) => c) <=> a" {
		t.Errorf("precedence: %s", s1)
	}
}

func TestMkSimplifications(t *testing.T) {
	a := Ref{Name: "a"}
	if MkAnd(Const{true}, a).String() != "a" {
		t.Error("true & a")
	}
	if MkAnd(Const{false}, a).String() != "false" {
		t.Error("false & a")
	}
	if MkOr(Const{false}, a).String() != "a" {
		t.Error("false | a")
	}
	if MkNot(MkNot(a)).String() != "a" {
		t.Error("!!a")
	}
}

func TestVoidImplicitReturn(t *testing.T) {
	prog, err := Parse("void f() begin skip; end")
	if err != nil {
		t.Fatal(err)
	}
	pr := prog.Proc("f")
	if pr.Stmts[len(pr.Stmts)-1].Kind != Return {
		t.Fatal("implicit return missing")
	}
}

func TestBoolProcNeedsReturn(t *testing.T) {
	_, err := Parse("bool f() begin skip; end")
	if err == nil {
		t.Fatal("bool procedure without return should fail")
	}
}

// TestLexAllocatesOnce pins the lexer's one allocation on printed
// boolean-program text: tokens hold offsets into the source, and the
// token slice is sized from it.
func TestLexAllocatesOnce(t *testing.T) {
	src := Print(MustParse(sampleSrc))
	if n := testing.AllocsPerRun(20, func() { _, _ = lexBP(src) }); n != 1 {
		t.Errorf("lexBP: %v allocs/op, want 1", n)
	}
}

// parsed keeps BenchmarkParse's result live.
var parsed *Program

// BenchmarkParse parses the boolean program C2bp prints for the paper's
// Figure 1 partition example.
func BenchmarkParse(b *testing.B) {
	raw, err := os.ReadFile("../../testdata/figure1_partition.bp.golden")
	if err != nil {
		b.Fatal(err)
	}
	src := string(raw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		parsed = prog
	}
}
