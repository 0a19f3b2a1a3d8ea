package spec

import (
	"strings"
	"testing"

	"predabs/internal/cast"
	"predabs/internal/cparse"
	"predabs/internal/ctype"
)

// MustParse panics on error.
func MustParse(src string) *Spec {
	sp, err := Parse(src)
	if err != nil {
		panic("spec.MustParse: " + err.Error())
	}
	return sp
}

const lockSpec = `
state {
  int locked = 0;
}

event AcquireLock entry {
  if (locked == 1) { abort; }
  locked = 1;
}

event ReleaseLock entry {
  if (locked == 0) { abort; }
  locked = 0;
}
`

func TestParseLockSpec(t *testing.T) {
	sp, err := Parse(lockSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.States) != 1 || sp.States[0].Name != "locked" || sp.States[0].Init != 0 {
		t.Fatalf("states: %+v", sp.States)
	}
	if len(sp.Events) != 2 {
		t.Fatalf("events: %+v", sp.Events)
	}
	if sp.Events[0].Proc != "AcquireLock" {
		t.Errorf("event proc: %s", sp.Events[0].Proc)
	}
	// abort became assert(0) inside an if.
	ifs, ok := sp.Events[0].Body[0].(*cast.IfStmt)
	if !ok {
		t.Fatalf("body[0]: %T", sp.Events[0].Body[0])
	}
	blk := ifs.Then.(*cast.Block)
	if _, ok := blk.Stmts[0].(*cast.AssertStmt); !ok {
		t.Fatalf("abort not rewritten: %T", blk.Stmts[0])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"event X exit { }", "unknown"},
		{"state { int a = 0; }", "no events"},
		{"banana { }", "expected 'state' or 'event'"},
		{"state { float x; } event f entry { }", "must be int"},
		{"event f entry { abort }", ""},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("%q: expected error", c.src)
		}
	}
}

func TestNegativeInit(t *testing.T) {
	sp, err := Parse("state { int s = -3; } event f entry { s = 0; }")
	if err != nil {
		t.Fatal(err)
	}
	if sp.States[0].Init != -3 {
		t.Fatalf("init: %d", sp.States[0].Init)
	}
}

func TestInstrument(t *testing.T) {
	prog := cparse.MustParse(`
void AcquireLock(void) { }
void ReleaseLock(void) { }
void main(void) {
  AcquireLock();
  ReleaseLock();
}
`)
	sp := MustParse(lockSpec)
	inst, err := Instrument(prog, sp, "main")
	if err != nil {
		t.Fatal(err)
	}
	if inst.Global("locked") == nil {
		t.Fatal("state variable not added as global")
	}
	// The instrumented program type checks.
	if _, err := ctype.Check(inst); err != nil {
		t.Fatalf("instrumented program fails to check: %v\n%s", err, cast.Print(inst))
	}
	// main starts with locked = 0.
	main := inst.Func("main")
	as, ok := main.Body.Stmts[0].(*cast.AssignStmt)
	if !ok || as.Lhs.String() != "locked" {
		t.Fatalf("missing state init: %s", cast.PrintStmt(main.Body.Stmts[0]))
	}
	// AcquireLock starts with the event body.
	acq := inst.Func("AcquireLock")
	if _, ok := acq.Body.Stmts[0].(*cast.IfStmt); !ok {
		t.Fatalf("event body not prepended: %s", cast.PrintStmt(acq.Body.Stmts[0]))
	}
	// Original program untouched.
	if len(prog.Globals) != 0 {
		t.Error("original program mutated")
	}
}

func TestInstrumentErrors(t *testing.T) {
	prog := cparse.MustParse("void f(void) { }")
	sp := MustParse("state { int s = 0; } event g entry { s = 1; }")
	if _, err := Instrument(prog, sp, "f"); err == nil || !strings.Contains(err.Error(), "unknown procedure") {
		t.Errorf("got %v", err)
	}
	sp2 := MustParse("event f entry { }")
	if _, err := Instrument(prog, sp2, "nosuch"); err == nil || !strings.Contains(err.Error(), "entry procedure") {
		t.Errorf("got %v", err)
	}
	progG := cparse.MustParse("int s; void f(void) { s = 1; }")
	sp3 := MustParse("state { int s = 0; } event f entry { s = 2; }")
	if _, err := Instrument(progG, sp3, "f"); err == nil || !strings.Contains(err.Error(), "collides") {
		t.Errorf("got %v", err)
	}
}
