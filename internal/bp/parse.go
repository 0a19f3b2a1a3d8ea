package bp

import (
	"fmt"
	"strconv"
	"strings"
)

// Parser for the boolean-program surface syntax, accepting both the flat
// label/goto form the printer emits and structured if/then/else/fi and
// while/do/od sugar (desugared to assumes and gotos at parse time, per
// paper Section 4.4).

type bpToken struct {
	kind string // "id", "num", punctuation/keyword spelling, "eof"
	text string
	line int
}

func lexBP(src string) ([]bpToken, error) {
	// A printed boolean program holds about one token per 3.5 to 7
	// bytes, so this is one allocation for the corpus; a denser source
	// grows the slice.
	toks := make([]bpToken, 0, len(src)/3+1)
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '{':
			j := i + 1
			for j < len(src) && src[j] != '}' {
				if src[j] == '\n' {
					line++
				}
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("line %d: unterminated {name}", line)
			}
			toks = append(toks, bpToken{"id", src[i+1 : j], line})
			i = j + 1
		case c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z'):
			j := i
			for j < len(src) && (src[j] == '_' || ('a' <= src[j] && src[j] <= 'z') ||
				('A' <= src[j] && src[j] <= 'Z') || ('0' <= src[j] && src[j] <= '9')) {
				j++
			}
			word := src[i:j]
			switch word {
			case "decl", "begin", "end", "enforce", "skip", "goto", "assume",
				"assert", "return", "if", "then", "else", "fi", "while", "do",
				"od", "choose", "true", "false", "bool", "void":
				toks = append(toks, bpToken{word, word, line})
			default:
				toks = append(toks, bpToken{"id", word, line})
			}
			i = j
		case '0' <= c && c <= '9':
			j := i
			for j < len(src) && '0' <= src[j] && src[j] <= '9' {
				j++
			}
			toks = append(toks, bpToken{"num", src[i:j], line})
			i = j
		default:
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			three := ""
			if i+2 < len(src) {
				three = src[i : i+3]
			}
			switch {
			case three == "<=>":
				toks = append(toks, bpToken{"<=>", three, line})
				i += 3
			case two == ":=" || two == "=>":
				toks = append(toks, bpToken{two, two, line})
				i += 2
			case strings.ContainsRune("();,:!&|*<>", rune(c)):
				toks = append(toks, bpToken{src[i : i+1], src[i : i+1], line})
				i++
			default:
				return nil, fmt.Errorf("line %d: unexpected character %q", line, c)
			}
		}
	}
	toks = append(toks, bpToken{"eof", "", line})
	return toks, nil
}

type bpParser struct {
	toks   []bpToken
	pos    int
	labelN int
}

// Parse parses boolean-program source text and resolves it.
func Parse(src string) (*Program, error) {
	toks, err := lexBP(src)
	if err != nil {
		return nil, err
	}
	p := &bpParser{toks: toks}
	prog, err := p.program()
	if err != nil {
		return nil, err
	}
	if err := prog.Resolve(); err != nil {
		return nil, err
	}
	return prog, nil
}

// ParseExpr parses a single boolean expression (no scope checking; for
// querying invariants by expression).
func ParseExpr(src string) (Expr, error) {
	toks, err := lexBP(src)
	if err != nil {
		return nil, err
	}
	p := &bpParser{toks: toks}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != "eof" {
		return nil, fmt.Errorf("line %d: unexpected %q after expression", p.peek().line, p.peek().text)
	}
	return e, nil
}

// MustParse panics on error (tests and embedded fixtures).
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic("bp.MustParse: " + err.Error())
	}
	return prog
}

func (p *bpParser) peek() bpToken { return p.toks[p.pos] }

func (p *bpParser) next() bpToken {
	t := p.toks[p.pos]
	if t.kind != "eof" {
		p.pos++
	}
	return t
}

func (p *bpParser) expect(kind string) (bpToken, error) {
	t := p.peek()
	if t.kind != kind {
		return t, fmt.Errorf("line %d: expected %q, found %q", t.line, kind, t.text)
	}
	return p.next(), nil
}

func (p *bpParser) accept(kind string) bool {
	if p.peek().kind == kind {
		p.next()
		return true
	}
	return false
}

func (p *bpParser) program() (*Program, error) {
	prog := &Program{}
	for p.accept("decl") {
		names, err := p.idList()
		if err != nil {
			return nil, err
		}
		prog.Globals = append(prog.Globals, names...)
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	for p.peek().kind != "eof" {
		pr, err := p.proc()
		if err != nil {
			return nil, err
		}
		prog.Procs = append(prog.Procs, pr)
	}
	return prog, nil
}

func (p *bpParser) idList() ([]string, error) {
	var out []string
	for {
		t, err := p.expect("id")
		if err != nil {
			return nil, err
		}
		out = append(out, t.text)
		if !p.accept(",") {
			return out, nil
		}
	}
}

func (p *bpParser) proc() (*Proc, error) {
	pr := &Proc{}
	switch p.peek().kind {
	case "void":
		p.next()
	case "bool":
		p.next()
		pr.NRet = 1
		if p.accept("<") {
			t, err := p.expect("num")
			if err != nil {
				return nil, err
			}
			n, err := strconv.Atoi(t.text)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("line %d: bad return arity %q", t.line, t.text)
			}
			pr.NRet = n
			if _, err := p.expect(">"); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("line %d: expected procedure type, found %q", p.peek().line, p.peek().text)
	}
	name, err := p.expect("id")
	if err != nil {
		return nil, err
	}
	pr.Name = name.text
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	if p.peek().kind != ")" {
		params, err := p.idList()
		if err != nil {
			return nil, err
		}
		pr.Params = params
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	if _, err := p.expect("begin"); err != nil {
		return nil, err
	}
	for p.accept("decl") {
		names, err := p.idList()
		if err != nil {
			return nil, err
		}
		pr.Locals = append(pr.Locals, names...)
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	if p.accept("enforce") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		pr.Enforce = e
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	stmts, err := p.stmtSeq(map[string]bool{"end": true})
	if err != nil {
		return nil, err
	}
	pr.Stmts = stmts
	if _, err := p.expect("end"); err != nil {
		return nil, err
	}
	// Implicit trailing return for void procedures that fall off the end.
	if len(pr.Stmts) == 0 || pr.Stmts[len(pr.Stmts)-1].Kind != Return {
		if pr.NRet == 0 {
			pr.Stmts = append(pr.Stmts, &Stmt{Kind: Return})
		}
	}
	return pr, nil
}

func (p *bpParser) freshLabel() string {
	p.labelN++
	return fmt.Sprintf("__bp%d", p.labelN)
}

// stmtSeq parses statements until one of the stop keywords.
func (p *bpParser) stmtSeq(stop map[string]bool) ([]*Stmt, error) {
	var out []*Stmt
	for !stop[p.peek().kind] && p.peek().kind != "eof" {
		ss, err := p.stmt()
		if err != nil {
			return nil, err
		}
		out = append(out, ss...)
	}
	return out, nil
}

// stmt parses one statement, possibly desugaring into several.
func (p *bpParser) stmt() ([]*Stmt, error) {
	var labels []string
	for p.peek().kind == "id" && p.toks[p.pos+1].kind == ":" {
		labels = append(labels, p.next().text)
		p.next() // ':'
	}
	attach := func(ss []*Stmt, err error) ([]*Stmt, error) {
		if err != nil {
			return nil, err
		}
		if len(ss) > 0 {
			ss[0].Labels = append(labels, ss[0].Labels...)
		}
		return ss, nil
	}

	t := p.peek()
	switch t.kind {
	case "skip":
		p.next()
		_, err := p.expect(";")
		return attach([]*Stmt{{Kind: Skip}}, err)
	case "goto":
		p.next()
		targets, err := p.idList()
		if err != nil {
			return nil, err
		}
		_, err = p.expect(";")
		return attach([]*Stmt{{Kind: Goto, Targets: targets}}, err)
	case "assume", "assert":
		p.next()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		kind := Assume
		if t.kind == "assert" {
			kind = Assert
		}
		return attach([]*Stmt{{Kind: kind, Cond: e}}, nil)
	case "return":
		p.next()
		var vals []Expr
		if p.peek().kind != ";" {
			var err error
			vals, err = p.exprList()
			if err != nil {
				return nil, err
			}
		}
		_, err := p.expect(";")
		return attach([]*Stmt{{Kind: Return, RetVals: vals}}, err)
	case "if":
		return attach(p.ifStmt())
	case "while":
		return attach(p.whileStmt())
	case "id":
		// Call without results, or (parallel) assignment / call with
		// results.
		if p.toks[p.pos+1].kind == "(" {
			callee := p.next().text
			args, err := p.callArgs()
			if err != nil {
				return nil, err
			}
			_, err = p.expect(";")
			return attach([]*Stmt{{Kind: Call, Callee: callee, Args: args}}, err)
		}
		lhs, err := p.idList()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(":="); err != nil {
			return nil, err
		}
		// Call on the right?
		if p.peek().kind == "id" && p.toks[p.pos+1].kind == "(" {
			callee := p.next().text
			args, err := p.callArgs()
			if err != nil {
				return nil, err
			}
			_, err = p.expect(";")
			return attach([]*Stmt{{Kind: Call, Callee: callee, Args: args, CallLhs: lhs}}, err)
		}
		rhs, err := p.exprList()
		if err != nil {
			return nil, err
		}
		_, err = p.expect(";")
		return attach([]*Stmt{{Kind: Assign, Lhs: lhs, Rhs: rhs}}, err)
	}
	return nil, fmt.Errorf("line %d: unexpected %q", t.line, t.text)
}

func (p *bpParser) callArgs() ([]Expr, error) {
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	var args []Expr
	if p.peek().kind != ")" {
		var err error
		args, err = p.exprList()
		if err != nil {
			return nil, err
		}
	}
	_, err := p.expect(")")
	return args, err
}

// ifStmt desugars:
//
//	if (e) then S1 else S2 fi
//
// into
//
//	goto Lt, Lf;
//	Lt: assume(e); S1; goto Le;
//	Lf: assume(!e); S2;
//	Le: skip;
func (p *bpParser) ifStmt() ([]*Stmt, error) {
	p.next() // if
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	if _, err := p.expect("then"); err != nil {
		return nil, err
	}
	thenS, err := p.stmtSeq(map[string]bool{"else": true, "fi": true})
	if err != nil {
		return nil, err
	}
	var elseS []*Stmt
	if p.accept("else") {
		elseS, err = p.stmtSeq(map[string]bool{"fi": true})
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect("fi"); err != nil {
		return nil, err
	}
	lt, lf, le := p.freshLabel(), p.freshLabel(), p.freshLabel()
	out := []*Stmt{{Kind: Goto, Targets: []string{lt, lf}}}
	out = append(out, &Stmt{Kind: Assume, Cond: assumeCond(cond, true), Labels: []string{lt}})
	out = append(out, thenS...)
	out = append(out, &Stmt{Kind: Goto, Targets: []string{le}})
	out = append(out, &Stmt{Kind: Assume, Cond: assumeCond(cond, false), Labels: []string{lf}})
	out = append(out, elseS...)
	out = append(out, &Stmt{Kind: Skip, Labels: []string{le}})
	return out, nil
}

// whileStmt desugars while (e) do S od similarly.
func (p *bpParser) whileStmt() ([]*Stmt, error) {
	p.next() // while
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	if _, err := p.expect("do"); err != nil {
		return nil, err
	}
	body, err := p.stmtSeq(map[string]bool{"od": true})
	if err != nil {
		return nil, err
	}
	if _, err := p.expect("od"); err != nil {
		return nil, err
	}
	lh, lb, le := p.freshLabel(), p.freshLabel(), p.freshLabel()
	out := []*Stmt{{Kind: Goto, Targets: []string{lb, le}, Labels: []string{lh}}}
	out = append(out, &Stmt{Kind: Assume, Cond: assumeCond(cond, true), Labels: []string{lb}})
	out = append(out, body...)
	out = append(out, &Stmt{Kind: Goto, Targets: []string{lh}})
	out = append(out, &Stmt{Kind: Assume, Cond: assumeCond(cond, false), Labels: []string{le}})
	return out, nil
}

// assumeCond handles the nondeterministic condition *: assume(true) on
// both branches.
func assumeCond(cond Expr, branch bool) Expr {
	if _, ok := cond.(Unknown); ok {
		return Const{true}
	}
	if branch {
		return cond
	}
	return MkNot(cond)
}

func (p *bpParser) exprList() ([]Expr, error) {
	var out []Expr
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if !p.accept(",") {
			return out, nil
		}
	}
}

// Expression precedence: <=> lowest, then =>, |, &, !, primary.
func (p *bpParser) expr() (Expr, error) { return p.iffExpr() }

func (p *bpParser) iffExpr() (Expr, error) {
	e, err := p.impExpr()
	if err != nil {
		return nil, err
	}
	for p.accept("<=>") {
		r, err := p.impExpr()
		if err != nil {
			return nil, err
		}
		e = Bin{Op: Iff, X: e, Y: r}
	}
	return e, nil
}

func (p *bpParser) impExpr() (Expr, error) {
	e, err := p.orExpr()
	if err != nil {
		return nil, err
	}
	if p.accept("=>") {
		r, err := p.impExpr() // right associative
		if err != nil {
			return nil, err
		}
		return Bin{Op: Implies, X: e, Y: r}, nil
	}
	return e, nil
}

func (p *bpParser) orExpr() (Expr, error) {
	e, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept("|") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		e = Bin{Op: Or, X: e, Y: r}
	}
	return e, nil
}

func (p *bpParser) andExpr() (Expr, error) {
	e, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.accept("&") {
		r, err := p.unary()
		if err != nil {
			return nil, err
		}
		e = Bin{Op: And, X: e, Y: r}
	}
	return e, nil
}

func (p *bpParser) unary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case "!":
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return Not{X: x}, nil
	case "*":
		p.next()
		return Unknown{}, nil
	case "true":
		p.next()
		return Const{true}, nil
	case "false":
		p.next()
		return Const{false}, nil
	case "choose":
		p.next()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		pos, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(","); err != nil {
			return nil, err
		}
		neg, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		return Choose{Pos: pos, Neg: neg}, nil
	case "id":
		p.next()
		return Ref{Name: t.text}, nil
	case "(":
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		_, err = p.expect(")")
		return e, err
	}
	return nil, fmt.Errorf("line %d: expected expression, found %q", t.line, t.text)
}
