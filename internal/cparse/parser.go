// Package cparse implements a recursive-descent parser for MiniC, the C
// subset accepted by the predabs toolkit, including typedefs, struct
// definitions, pointers, arrays, and the full statement and expression
// grammar used by the C2bp paper's examples.
package cparse

import (
	"fmt"
	"strconv"

	"predabs/internal/cast"
	"predabs/internal/ctok"
)

// Error is a parse error with a source position.
type Error struct {
	Pos ctok.Pos
	Msg string
}

// Error renders the error as "position: message".
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// parser holds the token stream and typedef environment.
type parser struct {
	toks     []ctok.Token
	pos      int
	typedefs map[string]cast.Type
	errs     []error
}

// Parse parses a MiniC translation unit. It returns the program and the
// first error encountered, if any.
func Parse(src string) (*cast.Program, error) {
	toks, lexErrs := ctok.ScanAll(src)
	p := &parser{toks: toks, typedefs: map[string]cast.Type{}}
	for _, e := range lexErrs {
		p.errs = append(p.errs, e)
	}
	prog := p.program()
	if len(p.errs) > 0 {
		return prog, p.errs[0]
	}
	return prog, nil
}

// MustParse parses src and panics on error; intended for tests and
// embedded corpus programs that are known to be valid.
func MustParse(src string) *cast.Program {
	prog, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("cparse.MustParse: %v", err))
	}
	return prog
}

// ParseExpr parses a single MiniC expression (used for predicate input
// files, which per the paper are pure C boolean expressions).
func ParseExpr(src string) (cast.Expr, error) {
	toks, lexErrs := ctok.ScanAll(src)
	p := &parser{toks: toks, typedefs: map[string]cast.Type{}}
	if len(lexErrs) > 0 {
		return nil, lexErrs[0]
	}
	e := p.expr()
	if p.peek().Kind != ctok.EOF {
		p.errorf(p.peek().Pos, "unexpected %s after expression", p.peek())
	}
	if len(p.errs) > 0 {
		return nil, p.errs[0]
	}
	return e, nil
}

func (p *parser) errorf(pos ctok.Pos, format string, args ...any) {
	// Cap error accumulation so a badly broken input cannot loop forever.
	if len(p.errs) < 50 {
		p.errs = append(p.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

func (p *parser) peek() ctok.Token { return p.toks[p.pos] }

func (p *parser) peekN(n int) ctok.Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *parser) next() ctok.Token {
	t := p.toks[p.pos]
	if t.Kind != ctok.EOF {
		p.pos++
	}
	return t
}

func (p *parser) accept(k ctok.Kind) bool {
	if p.peek().Kind == k {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k ctok.Kind) ctok.Token {
	t := p.peek()
	if t.Kind != k {
		p.errorf(t.Pos, "expected %s, found %s", k, t)
		// Do not consume: the caller's recovery loop will skip.
		return ctok.Token{Kind: k, Pos: t.Pos}
	}
	return p.next()
}

// isTypeStart reports whether the upcoming tokens begin a type.
func (p *parser) isTypeStart() bool {
	switch p.peek().Kind {
	case ctok.KwInt, ctok.KwVoid, ctok.KwStruct:
		return true
	case ctok.IDENT:
		_, ok := p.typedefs[p.peek().Text]
		return ok
	}
	return false
}

// baseType parses int | void | struct NAME | typedef-name, including an
// inline struct definition (struct NAME { ... }), which it returns via def.
func (p *parser) baseType() (cast.Type, *cast.StructDef) {
	t := p.peek()
	switch t.Kind {
	case ctok.KwInt:
		p.next()
		return cast.IntType{}, nil
	case ctok.KwVoid:
		p.next()
		return cast.VoidType{}, nil
	case ctok.KwStruct:
		p.next()
		name := p.expect(ctok.IDENT).Text
		if p.peek().Kind == ctok.LBrace {
			def := p.structBody(name)
			return cast.StructType{Name: name}, def
		}
		return cast.StructType{Name: name}, nil
	case ctok.IDENT:
		if ty, ok := p.typedefs[t.Text]; ok {
			p.next()
			return ty, nil
		}
	}
	p.errorf(t.Pos, "expected type, found %s", t)
	p.next()
	return cast.IntType{}, nil
}

// structBody parses "{ field* }" for the named struct.
func (p *parser) structBody(name string) *cast.StructDef {
	p.expect(ctok.LBrace)
	def := &cast.StructDef{Name: name}
	for p.peek().Kind != ctok.RBrace && p.peek().Kind != ctok.EOF {
		base, _ := p.baseType()
		for {
			ft := base
			for p.accept(ctok.Star) {
				ft = cast.PointerType{Elem: ft}
			}
			fname := p.expect(ctok.IDENT).Text
			ft = p.arraySuffix(ft)
			def.Fields = append(def.Fields, cast.FieldDef{Name: fname, Type: ft})
			if !p.accept(ctok.Comma) {
				break
			}
		}
		p.expect(ctok.Semi)
	}
	p.expect(ctok.RBrace)
	return def
}

// arraySuffix parses zero or more [N] suffixes.
func (p *parser) arraySuffix(t cast.Type) cast.Type {
	for p.peek().Kind == ctok.LBrack {
		p.next()
		n := -1
		if p.peek().Kind == ctok.INT {
			v, _ := strconv.Atoi(p.next().Text)
			n = v
		}
		p.expect(ctok.RBrack)
		t = cast.ArrayType{Elem: t, Len: n}
	}
	return t
}

// program parses the translation unit.
func (p *parser) program() *cast.Program {
	prog := &cast.Program{}
	for p.peek().Kind != ctok.EOF {
		start := p.pos
		p.topDecl(prog)
		if p.pos == start {
			// Recovery: skip a token so we always make progress.
			p.next()
		}
	}
	return prog
}

func (p *parser) topDecl(prog *cast.Program) {
	if p.accept(ctok.KwTypedef) {
		base, def := p.baseType()
		if def != nil {
			prog.Structs = append(prog.Structs, def)
		}
		for {
			t := base
			for p.accept(ctok.Star) {
				t = cast.PointerType{Elem: t}
			}
			name := p.expect(ctok.IDENT).Text
			t = p.arraySuffix(t)
			p.typedefs[name] = t
			if !p.accept(ctok.Comma) {
				break
			}
		}
		p.expect(ctok.Semi)
		return
	}

	if !p.isTypeStart() {
		p.errorf(p.peek().Pos, "expected declaration, found %s", p.peek())
		return
	}
	base, def := p.baseType()
	if def != nil {
		prog.Structs = append(prog.Structs, def)
		if p.accept(ctok.Semi) { // bare "struct X { ... };"
			return
		}
	}
	t := base
	for p.accept(ctok.Star) {
		t = cast.PointerType{Elem: t}
	}
	nameTok := p.expect(ctok.IDENT)
	if p.peek().Kind == ctok.LParen {
		prog.Funcs = append(prog.Funcs, p.funcRest(t, nameTok))
		return
	}
	// Global variable declaration(s).
	t = p.arraySuffix(t)
	prog.Globals = append(prog.Globals, &cast.VarDecl{Name: nameTok.Text, Type: t, P: nameTok.Pos})
	for p.accept(ctok.Comma) {
		t2 := base
		for p.accept(ctok.Star) {
			t2 = cast.PointerType{Elem: t2}
		}
		n2 := p.expect(ctok.IDENT)
		t2 = p.arraySuffix(t2)
		prog.Globals = append(prog.Globals, &cast.VarDecl{Name: n2.Text, Type: t2, P: n2.Pos})
	}
	p.expect(ctok.Semi)
}

func (p *parser) funcRest(ret cast.Type, nameTok ctok.Token) *cast.FuncDef {
	f := &cast.FuncDef{Name: nameTok.Text, Ret: ret, P: nameTok.Pos}
	p.expect(ctok.LParen)
	if p.peek().Kind != ctok.RParen {
		if p.peek().Kind == ctok.KwVoid && p.peekN(1).Kind == ctok.RParen {
			p.next() // f(void)
		} else {
			for {
				base, _ := p.baseType()
				t := base
				for p.accept(ctok.Star) {
					t = cast.PointerType{Elem: t}
				}
				pn := p.expect(ctok.IDENT).Text
				t = p.arraySuffix(t)
				f.Params = append(f.Params, cast.Param{Name: pn, Type: t})
				if !p.accept(ctok.Comma) {
					break
				}
			}
		}
	}
	p.expect(ctok.RParen)
	f.Body = p.block()
	return f
}

func (p *parser) block() *cast.Block {
	lb := p.expect(ctok.LBrace)
	blk := &cast.Block{}
	blk.P = lb.Pos
	for p.peek().Kind != ctok.RBrace && p.peek().Kind != ctok.EOF {
		start := p.pos
		blk.Stmts = append(blk.Stmts, p.stmt())
		if p.pos == start {
			p.next()
		}
	}
	p.expect(ctok.RBrace)
	return blk
}

func (p *parser) stmt() cast.Stmt {
	t := p.peek()
	switch t.Kind {
	case ctok.LBrace:
		return p.block()
	case ctok.Semi:
		p.next()
		s := &cast.EmptyStmt{}
		s.P = t.Pos
		return s
	case ctok.KwIf:
		p.next()
		p.expect(ctok.LParen)
		cond := p.expr()
		p.expect(ctok.RParen)
		then := p.stmt()
		var els cast.Stmt
		if p.accept(ctok.KwElse) {
			els = p.stmt()
		}
		s := &cast.IfStmt{Cond: cond, Then: then, Else: els}
		s.P = t.Pos
		return s
	case ctok.KwWhile:
		p.next()
		p.expect(ctok.LParen)
		cond := p.expr()
		p.expect(ctok.RParen)
		body := p.stmt()
		s := &cast.WhileStmt{Cond: cond, Body: body}
		s.P = t.Pos
		return s
	case ctok.KwGoto:
		p.next()
		lbl := p.expect(ctok.IDENT).Text
		p.expect(ctok.Semi)
		s := &cast.GotoStmt{Label: lbl}
		s.P = t.Pos
		return s
	case ctok.KwReturn:
		p.next()
		var x cast.Expr
		if p.peek().Kind != ctok.Semi {
			x = p.expr()
		}
		p.expect(ctok.Semi)
		s := &cast.ReturnStmt{X: x}
		s.P = t.Pos
		return s
	case ctok.KwBreak:
		p.next()
		p.expect(ctok.Semi)
		s := &cast.BreakStmt{}
		s.P = t.Pos
		return s
	case ctok.KwContinue:
		p.next()
		p.expect(ctok.Semi)
		s := &cast.ContinueStmt{}
		s.P = t.Pos
		return s
	case ctok.KwAssert:
		p.next()
		p.expect(ctok.LParen)
		x := p.expr()
		p.expect(ctok.RParen)
		p.expect(ctok.Semi)
		s := &cast.AssertStmt{X: x}
		s.P = t.Pos
		return s
	case ctok.KwAssume:
		p.next()
		p.expect(ctok.LParen)
		x := p.expr()
		p.expect(ctok.RParen)
		p.expect(ctok.Semi)
		s := &cast.AssumeStmt{X: x}
		s.P = t.Pos
		return s
	}

	// Label: IDENT ':' stmt
	if t.Kind == ctok.IDENT && p.peekN(1).Kind == ctok.Colon {
		if _, isType := p.typedefs[t.Text]; !isType {
			p.next()
			p.next()
			s := &cast.LabeledStmt{Label: t.Text, Stmt: p.stmt()}
			s.P = t.Pos
			return s
		}
	}

	// Local declaration.
	if p.isTypeStart() {
		base, _ := p.baseType()
		var stmts []cast.Stmt
		for {
			ty := base
			for p.accept(ctok.Star) {
				ty = cast.PointerType{Elem: ty}
			}
			nameTok := p.expect(ctok.IDENT)
			ty = p.arraySuffix(ty)
			var init cast.Expr
			if p.accept(ctok.Assign) {
				init = p.expr()
			}
			d := &cast.DeclStmt{Name: nameTok.Text, Type: ty, Init: init}
			d.P = nameTok.Pos
			stmts = append(stmts, d)
			if !p.accept(ctok.Comma) {
				break
			}
		}
		p.expect(ctok.Semi)
		if len(stmts) == 1 {
			return stmts[0]
		}
		blk := &cast.Block{Stmts: stmts}
		blk.P = t.Pos
		return blk
	}

	// Assignment or expression (call) statement.
	lhs := p.expr()
	if p.accept(ctok.Assign) {
		rhs := p.expr()
		p.expect(ctok.Semi)
		s := &cast.AssignStmt{Lhs: lhs, Rhs: rhs}
		s.P = t.Pos
		return s
	}
	p.expect(ctok.Semi)
	s := &cast.ExprStmt{X: lhs}
	s.P = t.Pos
	return s
}

// Expression grammar, standard C precedence (no assignment expressions,
// no comma operator, no ternary — per the paper's simple form).

func (p *parser) expr() cast.Expr { return p.orExpr() }

func (p *parser) orExpr() cast.Expr {
	e := p.andExpr()
	for p.peek().Kind == ctok.OrOr {
		op := p.next()
		rhs := p.andExpr()
		b := &cast.Binary{Op: cast.LOr, X: e, Y: rhs}
		b.P = op.Pos
		e = b
	}
	return e
}

func (p *parser) andExpr() cast.Expr {
	e := p.eqExpr()
	for p.peek().Kind == ctok.AndAnd {
		op := p.next()
		rhs := p.eqExpr()
		b := &cast.Binary{Op: cast.LAnd, X: e, Y: rhs}
		b.P = op.Pos
		e = b
	}
	return e
}

func (p *parser) eqExpr() cast.Expr {
	e := p.relExpr()
	for {
		var op cast.BinOp
		switch p.peek().Kind {
		case ctok.EqEq:
			op = cast.Eq
		case ctok.NotEq:
			op = cast.Ne
		default:
			return e
		}
		t := p.next()
		rhs := p.relExpr()
		b := &cast.Binary{Op: op, X: e, Y: rhs}
		b.P = t.Pos
		e = b
	}
}

func (p *parser) relExpr() cast.Expr {
	e := p.addExpr()
	for {
		var op cast.BinOp
		switch p.peek().Kind {
		case ctok.Lt:
			op = cast.Lt
		case ctok.Le:
			op = cast.Le
		case ctok.Gt:
			op = cast.Gt
		case ctok.Ge:
			op = cast.Ge
		default:
			return e
		}
		t := p.next()
		rhs := p.addExpr()
		b := &cast.Binary{Op: op, X: e, Y: rhs}
		b.P = t.Pos
		e = b
	}
}

func (p *parser) addExpr() cast.Expr {
	e := p.mulExpr()
	for {
		var op cast.BinOp
		switch p.peek().Kind {
		case ctok.Plus:
			op = cast.Add
		case ctok.Minus:
			op = cast.Sub
		default:
			return e
		}
		t := p.next()
		rhs := p.mulExpr()
		b := &cast.Binary{Op: op, X: e, Y: rhs}
		b.P = t.Pos
		e = b
	}
}

func (p *parser) mulExpr() cast.Expr {
	e := p.unaryExpr()
	for {
		var op cast.BinOp
		switch p.peek().Kind {
		case ctok.Star:
			op = cast.Mul
		case ctok.Slash:
			op = cast.Div
		case ctok.Percent:
			op = cast.Mod
		default:
			return e
		}
		t := p.next()
		rhs := p.unaryExpr()
		b := &cast.Binary{Op: op, X: e, Y: rhs}
		b.P = t.Pos
		e = b
	}
}

func (p *parser) unaryExpr() cast.Expr {
	t := p.peek()
	var op cast.UnaryOp
	switch t.Kind {
	case ctok.Minus:
		op = cast.Neg
	case ctok.Not:
		op = cast.Not
	case ctok.Star:
		op = cast.Deref_
	case ctok.Amp:
		op = cast.AddrOf
	default:
		return p.postfixExpr()
	}
	p.next()
	x := p.unaryExpr()
	u := &cast.Unary{Op: op, X: x}
	u.P = t.Pos
	return u
}

func (p *parser) postfixExpr() cast.Expr {
	e := p.primaryExpr()
	for {
		t := p.peek()
		switch t.Kind {
		case ctok.Arrow:
			p.next()
			name := p.expect(ctok.IDENT).Text
			f := &cast.Field{X: e, Name: name, Arrow: true}
			f.P = t.Pos
			e = f
		case ctok.Dot:
			p.next()
			name := p.expect(ctok.IDENT).Text
			f := &cast.Field{X: e, Name: name, Arrow: false}
			f.P = t.Pos
			e = f
		case ctok.LBrack:
			p.next()
			idx := p.expr()
			p.expect(ctok.RBrack)
			ix := &cast.Index{X: e, I: idx}
			ix.P = t.Pos
			e = ix
		default:
			return e
		}
	}
}

func (p *parser) primaryExpr() cast.Expr {
	t := p.peek()
	switch t.Kind {
	case ctok.INT:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			p.errorf(t.Pos, "bad integer literal %q", t.Text)
		}
		e := &cast.IntLit{Value: v}
		e.P = t.Pos
		return e
	case ctok.KwNull:
		p.next()
		e := &cast.NullLit{}
		e.P = t.Pos
		return e
	case ctok.IDENT:
		p.next()
		if p.peek().Kind == ctok.LParen {
			p.next()
			var args []cast.Expr
			if p.peek().Kind != ctok.RParen {
				for {
					args = append(args, p.expr())
					if !p.accept(ctok.Comma) {
						break
					}
				}
			}
			p.expect(ctok.RParen)
			c := &cast.Call{Name: t.Text, Args: args}
			c.P = t.Pos
			return c
		}
		e := &cast.VarRef{Name: t.Text}
		e.P = t.Pos
		return e
	case ctok.LParen:
		p.next()
		e := p.expr()
		p.expect(ctok.RParen)
		return e
	}
	p.errorf(t.Pos, "expected expression, found %s", t)
	p.next()
	e := &cast.IntLit{Value: 0}
	e.P = t.Pos
	return e
}
