package bp

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Parser for the boolean-program surface syntax, accepting both the flat
// label/goto form the printer emits and structured if/then/else/fi and
// while/do/od sugar (desugared to assumes and gotos at parse time, per
// paper Section 4.4).

// tokKind is a token's kind: an identifier, a number, a keyword or a
// punctuation mark, or the end of the input.
type tokKind byte

const (
	tEOF tokKind = iota
	tID
	tNum
	tDecl
	tBegin
	tEnd
	tEnforce
	tSkip
	tGoto
	tAssume
	tAssert
	tReturn
	tIf
	tThen
	tElse
	tFi
	tWhile
	tDo
	tOd
	tChoose
	tTrue
	tFalse
	tBool
	tVoid
	tIff     // <=>
	tAssign  // :=
	tImplies // =>
	tLParen
	tRParen
	tSemi
	tComma
	tColon
	tBang
	tAmp
	tBar
	tStar
	tLess
	tGreater
)

// kindText spells each kind in error messages: the keyword or mark
// itself, or "id", "num" and "eof".
var kindText = [...]string{
	tEOF: "eof", tID: "id", tNum: "num",
	tDecl: "decl", tBegin: "begin", tEnd: "end", tEnforce: "enforce",
	tSkip: "skip", tGoto: "goto", tAssume: "assume", tAssert: "assert",
	tReturn: "return", tIf: "if", tThen: "then", tElse: "else", tFi: "fi",
	tWhile: "while", tDo: "do", tOd: "od", tChoose: "choose",
	tTrue: "true", tFalse: "false", tBool: "bool", tVoid: "void",
	tIff: "<=>", tAssign: ":=", tImplies: "=>",
	tLParen: "(", tRParen: ")", tSemi: ";", tComma: ",", tColon: ":",
	tBang: "!", tAmp: "&", tBar: "|", tStar: "*", tLess: "<", tGreater: ">",
}

// keywords maps each keyword's spelling to its kind.
var keywords = func() map[string]tokKind {
	m := map[string]tokKind{}
	for k := tDecl; k <= tVoid; k++ {
		m[kindText[k]] = k
	}
	return m
}()

// bpToken is one token: its kind, its text as the source range
// [from, to), and its line. It holds no pointer.
type bpToken struct {
	from, to, line int32
	kind           tokKind
}

func lexBP(src string) ([]bpToken, error) {
	if len(src) > math.MaxInt32 {
		return nil, fmt.Errorf("boolean program of %d bytes is too long", len(src))
	}
	// A printed boolean program holds about one token per 3.5 to 7
	// bytes, so this is one allocation for the corpus; a denser source
	// grows the slice.
	toks := make([]bpToken, 0, len(src)/3+1)
	tok := func(k tokKind, from, to, line int) {
		toks = append(toks, bpToken{from: int32(from), to: int32(to), line: int32(line), kind: k})
	}
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
			tok(tID, i+1, j, line)
			i = j + 1
		case c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z'):
			j := i
			for j < len(src) && (src[j] == '_' || ('a' <= src[j] && src[j] <= 'z') ||
				('A' <= src[j] && src[j] <= 'Z') || ('0' <= src[j] && src[j] <= '9')) {
				j++
			}
			k, ok := keywords[src[i:j]]
			if !ok {
				k = tID
			}
			tok(k, i, j, line)
			i = j
		case '0' <= c && c <= '9':
			j := i
			for j < len(src) && '0' <= src[j] && src[j] <= '9' {
				j++
			}
			tok(tNum, i, j, line)
			i = j
		default:
			k, n := punct(src[i:])
			if n == 0 {
				return nil, fmt.Errorf("line %d: unexpected character %q", line, c)
			}
			tok(k, i, i+n, line)
			i += n
		}
	}
	tok(tEOF, len(src), len(src), line)
	return toks, nil
}

// punct returns the kind and length of the punctuation mark s starts
// with, or length 0 if it starts with none.
func punct(s string) (tokKind, int) {
	switch {
	case strings.HasPrefix(s, "<=>"):
		return tIff, 3
	case strings.HasPrefix(s, ":="):
		return tAssign, 2
	case strings.HasPrefix(s, "=>"):
		return tImplies, 2
	}
	for k := tLParen; k <= tGreater; k++ {
		if s[0] == kindText[k][0] {
			return k, 1
		}
	}
	return 0, 0
}

type bpParser struct {
	src    string
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
	p := &bpParser{src: src, toks: toks}
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
	p := &bpParser{src: src, toks: toks}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind != tEOF {
		return nil, fmt.Errorf("line %d: unexpected %q after expression", t.line, p.text(t))
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

// text returns a token's source text ("" at the end of the input).
func (p *bpParser) text(t bpToken) string { return p.src[t.from:t.to] }

func (p *bpParser) next() bpToken {
	t := p.toks[p.pos]
	if t.kind != tEOF {
		p.pos++
	}
	return t
}

func (p *bpParser) expect(kind tokKind) (bpToken, error) {
	t := p.peek()
	if t.kind != kind {
		return t, fmt.Errorf("line %d: expected %q, found %q", t.line, kindText[kind], p.text(t))
	}
	return p.next(), nil
}

func (p *bpParser) accept(kind tokKind) bool {
	if p.peek().kind == kind {
		p.next()
		return true
	}
	return false
}

func (p *bpParser) program() (*Program, error) {
	prog := &Program{}
	for p.accept(tDecl) {
		names, err := p.idList()
		if err != nil {
			return nil, err
		}
		prog.Globals = append(prog.Globals, names...)
		if _, err := p.expect(tSemi); err != nil {
			return nil, err
		}
	}
	for p.peek().kind != tEOF {
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
		t, err := p.expect(tID)
		if err != nil {
			return nil, err
		}
		out = append(out, p.text(t))
		if !p.accept(tComma) {
			return out, nil
		}
	}
}

func (p *bpParser) proc() (*Proc, error) {
	pr := &Proc{}
	switch p.peek().kind {
	case tVoid:
		p.next()
	case tBool:
		p.next()
		pr.NRet = 1
		if p.accept(tLess) {
			t, err := p.expect(tNum)
			if err != nil {
				return nil, err
			}
			n, err := strconv.Atoi(p.text(t))
			if err != nil || n < 1 {
				return nil, fmt.Errorf("line %d: bad return arity %q", t.line, p.text(t))
			}
			pr.NRet = n
			if _, err := p.expect(tGreater); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("line %d: expected procedure type, found %q", p.peek().line, p.text(p.peek()))
	}
	name, err := p.expect(tID)
	if err != nil {
		return nil, err
	}
	pr.Name = p.text(name)
	if _, err := p.expect(tLParen); err != nil {
		return nil, err
	}
	if p.peek().kind != tRParen {
		params, err := p.idList()
		if err != nil {
			return nil, err
		}
		pr.Params = params
	}
	if _, err := p.expect(tRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(tBegin); err != nil {
		return nil, err
	}
	for p.accept(tDecl) {
		names, err := p.idList()
		if err != nil {
			return nil, err
		}
		pr.Locals = append(pr.Locals, names...)
		if _, err := p.expect(tSemi); err != nil {
			return nil, err
		}
	}
	if p.accept(tEnforce) {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		pr.Enforce = e
		if _, err := p.expect(tSemi); err != nil {
			return nil, err
		}
	}
	stmts, err := p.stmtSeq(tEnd)
	if err != nil {
		return nil, err
	}
	pr.Stmts = stmts
	if _, err := p.expect(tEnd); err != nil {
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
func (p *bpParser) stmtSeq(stop ...tokKind) ([]*Stmt, error) {
	var out []*Stmt
	for k := p.peek().kind; k != tEOF && !slices.Contains(stop, k); k = p.peek().kind {
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
	for p.peek().kind == tID && p.toks[p.pos+1].kind == tColon {
		labels = append(labels, p.text(p.next()))
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
	case tSkip:
		p.next()
		_, err := p.expect(tSemi)
		return attach([]*Stmt{{Kind: Skip}}, err)
	case tGoto:
		p.next()
		targets, err := p.idList()
		if err != nil {
			return nil, err
		}
		_, err = p.expect(tSemi)
		return attach([]*Stmt{{Kind: Goto, Targets: targets}}, err)
	case tAssume, tAssert:
		p.next()
		if _, err := p.expect(tLParen); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(tSemi); err != nil {
			return nil, err
		}
		kind := Assume
		if t.kind == tAssert {
			kind = Assert
		}
		return attach([]*Stmt{{Kind: kind, Cond: e}}, nil)
	case tReturn:
		p.next()
		var vals []Expr
		if p.peek().kind != tSemi {
			var err error
			vals, err = p.exprList()
			if err != nil {
				return nil, err
			}
		}
		_, err := p.expect(tSemi)
		return attach([]*Stmt{{Kind: Return, RetVals: vals}}, err)
	case tIf:
		return attach(p.ifStmt())
	case tWhile:
		return attach(p.whileStmt())
	case tID:
		// Call without results, or (parallel) assignment / call with
		// results.
		if p.toks[p.pos+1].kind == tLParen {
			callee := p.text(p.next())
			args, err := p.callArgs()
			if err != nil {
				return nil, err
			}
			_, err = p.expect(tSemi)
			return attach([]*Stmt{{Kind: Call, Callee: callee, Args: args}}, err)
		}
		lhs, err := p.idList()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tAssign); err != nil {
			return nil, err
		}
		// Call on the right?
		if p.peek().kind == tID && p.toks[p.pos+1].kind == tLParen {
			callee := p.text(p.next())
			args, err := p.callArgs()
			if err != nil {
				return nil, err
			}
			_, err = p.expect(tSemi)
			return attach([]*Stmt{{Kind: Call, Callee: callee, Args: args, CallLhs: lhs}}, err)
		}
		rhs, err := p.exprList()
		if err != nil {
			return nil, err
		}
		_, err = p.expect(tSemi)
		return attach([]*Stmt{{Kind: Assign, Lhs: lhs, Rhs: rhs}}, err)
	}
	return nil, fmt.Errorf("line %d: unexpected %q", t.line, p.text(t))
}

func (p *bpParser) callArgs() ([]Expr, error) {
	if _, err := p.expect(tLParen); err != nil {
		return nil, err
	}
	var args []Expr
	if p.peek().kind != tRParen {
		var err error
		args, err = p.exprList()
		if err != nil {
			return nil, err
		}
	}
	_, err := p.expect(tRParen)
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
	if _, err := p.expect(tLParen); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(tThen); err != nil {
		return nil, err
	}
	thenS, err := p.stmtSeq(tElse, tFi)
	if err != nil {
		return nil, err
	}
	var elseS []*Stmt
	if p.accept(tElse) {
		elseS, err = p.stmtSeq(tFi)
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tFi); err != nil {
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
	if _, err := p.expect(tLParen); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(tDo); err != nil {
		return nil, err
	}
	body, err := p.stmtSeq(tOd)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tOd); err != nil {
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
		if !p.accept(tComma) {
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
	for p.accept(tIff) {
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
	if p.accept(tImplies) {
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
	for p.accept(tBar) {
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
	for p.accept(tAmp) {
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
	case tBang:
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return Not{X: x}, nil
	case tStar:
		p.next()
		return Unknown{}, nil
	case tTrue:
		p.next()
		return Const{true}, nil
	case tFalse:
		p.next()
		return Const{false}, nil
	case tChoose:
		p.next()
		if _, err := p.expect(tLParen); err != nil {
			return nil, err
		}
		pos, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tComma); err != nil {
			return nil, err
		}
		neg, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen); err != nil {
			return nil, err
		}
		return Choose{Pos: pos, Neg: neg}, nil
	case tID:
		p.next()
		return Ref{Name: p.text(t)}, nil
	case tLParen:
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		_, err = p.expect(tRParen)
		return e, err
	}
	return nil, fmt.Errorf("line %d: expected expression, found %q", t.line, p.text(t))
}
