// Package spec implements a SLIC-style temporal-safety specification
// language and its instrumentation into MiniC programs, as used by the
// SLAM toolkit to check interface usage rules (paper Section 6.1: "proper
// usage of locks and proper handling of interrupt request packets").
//
// A specification declares integer state variables and event handlers
// attached to procedure entries:
//
//	state {
//	  int locked = 0;
//	}
//
//	event AcquireLock entry {
//	  if (locked == 1) { abort; }
//	  locked = 1;
//	}
//
// Instrumentation adds the state variables as globals, initializes them
// at the entry procedure, and prepends each event body to its procedure.
// "abort;" becomes "assert(0);", so SLAM's reachability question is
// exactly "can an abort statement execute?".
package spec

import (
	"fmt"
	"strconv"
	"strings"

	"predabs/internal/cast"
	"predabs/internal/cparse"
	"predabs/internal/ctok"
)

// StateVar is one specification state variable.
type StateVar struct {
	Name string
	Init int64
}

// Event attaches a handler body to a procedure entry.
type Event struct {
	Proc string
	Body []cast.Stmt
}

// Spec is a parsed temporal-safety specification.
type Spec struct {
	States []StateVar
	Events []Event
}

// Parse parses specification source text.
func Parse(src string) (*Spec, error) {
	toks, errs := ctok.ScanAll(src)
	if len(errs) > 0 {
		return nil, errs[0]
	}
	sp := &Spec{}
	i := 0
	peek := func() ctok.Token { return toks[i] }
	next := func() ctok.Token {
		t := toks[i]
		if t.Kind != ctok.EOF {
			i++
		}
		return t
	}

	takeBraceSpan := func() ([]ctok.Token, error) {
		if peek().Kind != ctok.LBrace {
			return nil, fmt.Errorf("%s: expected '{'", peek().Pos)
		}
		next()
		depth := 1
		start := i
		for depth > 0 {
			t := next()
			switch t.Kind {
			case ctok.LBrace:
				depth++
			case ctok.RBrace:
				depth--
			case ctok.EOF:
				return nil, fmt.Errorf("unterminated block")
			}
		}
		return toks[start : i-1], nil
	}

	for peek().Kind != ctok.EOF {
		t := next()
		if t.Kind != ctok.IDENT {
			return nil, fmt.Errorf("%s: expected 'state' or 'event', found %s", t.Pos, t)
		}
		switch t.Text {
		case "state":
			span, err := takeBraceSpan()
			if err != nil {
				return nil, err
			}
			states, err := parseStates(span)
			if err != nil {
				return nil, err
			}
			sp.States = append(sp.States, states...)
		case "event":
			nameTok := next()
			if nameTok.Kind != ctok.IDENT {
				return nil, fmt.Errorf("%s: expected procedure name", nameTok.Pos)
			}
			kindTok := next()
			if kindTok.Kind != ctok.IDENT || kindTok.Text != "entry" {
				return nil, fmt.Errorf("%s: only 'entry' events are supported", kindTok.Pos)
			}
			span, err := takeBraceSpan()
			if err != nil {
				return nil, err
			}
			body, err := parseBody(span)
			if err != nil {
				return nil, fmt.Errorf("event %s: %w", nameTok.Text, err)
			}
			sp.Events = append(sp.Events, Event{Proc: nameTok.Text, Body: body})
		default:
			return nil, fmt.Errorf("%s: expected 'state' or 'event', found %q", t.Pos, t.Text)
		}
	}
	if len(sp.Events) == 0 {
		return nil, fmt.Errorf("specification has no events")
	}
	return sp, nil
}

// parseStates parses "int name = value;" declarations.
func parseStates(span []ctok.Token) ([]StateVar, error) {
	var out []StateVar
	i := 0
	for i < len(span) {
		if span[i].Kind != ctok.KwInt {
			return nil, fmt.Errorf("%s: state variables must be int", span[i].Pos)
		}
		i++
		if i >= len(span) || span[i].Kind != ctok.IDENT {
			return nil, fmt.Errorf("bad state declaration")
		}
		name := span[i].Text
		i++
		var init int64
		if i < len(span) && span[i].Kind == ctok.Assign {
			i++
			neg := false
			if i < len(span) && span[i].Kind == ctok.Minus {
				neg = true
				i++
			}
			if i >= len(span) || span[i].Kind != ctok.INT {
				return nil, fmt.Errorf("state %s: bad initializer", name)
			}
			v, err := strconv.ParseInt(span[i].Text, 10, 64)
			if err != nil {
				return nil, err
			}
			if neg {
				v = -v
			}
			init = v
			i++
		}
		if i >= len(span) || span[i].Kind != ctok.Semi {
			return nil, fmt.Errorf("state %s: missing ';'", name)
		}
		i++
		out = append(out, StateVar{Name: name, Init: init})
	}
	return out, nil
}

// parseBody reconstructs the event body source (rewriting "abort;" to
// "assert(0);") and parses it with the MiniC parser.
func parseBody(span []ctok.Token) ([]cast.Stmt, error) {
	var b strings.Builder
	for j := 0; j < len(span); j++ {
		t := span[j]
		if t.Kind == ctok.IDENT && t.Text == "abort" {
			b.WriteString(" assert(0)")
			continue
		}
		b.WriteString(" " + t.Text)
	}
	src := "void __evt(void) {" + b.String() + "}"
	// Parsing requires the state variables in scope; declare a permissive
	// superset by leaving resolution to instrumentation time (the MiniC
	// parser itself is scope-free; the type checker runs later on the
	// instrumented program).
	prog, err := cparse.Parse(src)
	if err != nil {
		return nil, err
	}
	f := prog.Func("__evt")
	if f == nil {
		return nil, fmt.Errorf("internal: event wrapper lost")
	}
	return f.Body.Stmts, nil
}

// Instrument weaves the specification into a program: state variables
// become globals initialized at the top of the entry procedure, and each
// event body is prepended to its procedure. The returned program shares
// unmodified function bodies with the input.
func Instrument(prog *cast.Program, sp *Spec, entry string) (*cast.Program, error) {
	out := &cast.Program{Structs: prog.Structs}
	out.Globals = append(out.Globals, prog.Globals...)
	for _, sv := range sp.States {
		if prog.Global(sv.Name) != nil {
			return nil, fmt.Errorf("spec state %q collides with a program global", sv.Name)
		}
		out.Globals = append(out.Globals, &cast.VarDecl{Name: sv.Name, Type: cast.IntType{}})
	}
	eventFor := map[string][]cast.Stmt{}
	for _, ev := range sp.Events {
		if prog.Func(ev.Proc) == nil {
			return nil, fmt.Errorf("spec event for unknown procedure %q", ev.Proc)
		}
		eventFor[ev.Proc] = append(eventFor[ev.Proc], ev.Body...)
	}
	foundEntry := false
	for _, f := range prog.Funcs {
		nf := &cast.FuncDef{Name: f.Name, Ret: f.Ret, Params: f.Params, P: f.P}
		var pre []cast.Stmt
		if f.Name == entry {
			foundEntry = true
			for _, sv := range sp.States {
				pre = append(pre, &cast.AssignStmt{
					Lhs: cast.NewVar(sv.Name),
					Rhs: cast.NewInt(sv.Init),
				})
			}
		}
		pre = append(pre, eventFor[f.Name]...)
		if len(pre) == 0 {
			nf.Body = f.Body
		} else {
			nf.Body = &cast.Block{Stmts: append(pre, f.Body.Stmts...)}
		}
		out.Funcs = append(out.Funcs, nf)
	}
	if !foundEntry {
		return nil, fmt.Errorf("entry procedure %q not found", entry)
	}
	return out, nil
}
