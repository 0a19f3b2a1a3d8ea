package ctok

import "fmt"

// Scanner converts MiniC source text into a stream of tokens. It handles
// // line comments and /* block */ comments and tracks line/column positions.
type Scanner struct {
	src  string
	off  int
	line int
	col  int
	errs []error
}

// NewScanner returns a scanner over src.
func NewScanner(src string) *Scanner {
	return &Scanner{src: src, line: 1, col: 1}
}

// Errs returns the lexical errors encountered so far.
func (s *Scanner) Errs() []error { return s.errs }

func (s *Scanner) errorf(p Pos, format string, args ...any) {
	s.errs = append(s.errs, fmt.Errorf("%s: %s", p, fmt.Sprintf(format, args...)))
}

func (s *Scanner) peek() byte {
	if s.off >= len(s.src) {
		return 0
	}
	return s.src[s.off]
}

func (s *Scanner) peek2() byte {
	if s.off+1 >= len(s.src) {
		return 0
	}
	return s.src[s.off+1]
}

func (s *Scanner) advance() byte {
	c := s.src[s.off]
	s.off++
	if c == '\n' {
		s.line++
		s.col = 1
	} else {
		s.col++
	}
	return c
}

func (s *Scanner) skipSpaceAndComments() {
	for s.off < len(s.src) {
		c := s.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			s.advance()
		case c == '/' && s.peek2() == '/':
			for s.off < len(s.src) && s.peek() != '\n' {
				s.advance()
			}
		case c == '/' && s.peek2() == '*':
			start := s.pos()
			s.advance()
			s.advance()
			closed := false
			for s.off < len(s.src) {
				if s.peek() == '*' && s.peek2() == '/' {
					s.advance()
					s.advance()
					closed = true
					break
				}
				s.advance()
			}
			if !closed {
				s.errorf(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

func (s *Scanner) pos() Pos { return Pos{Line: s.line, Col: s.col} }

func isLetter(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// Next returns the next token, or an EOF token when the input is exhausted.
func (s *Scanner) Next() Token {
	s.skipSpaceAndComments()
	p := s.pos()
	if s.off >= len(s.src) {
		return Token{Kind: EOF, Pos: p}
	}
	c := s.peek()
	switch {
	case isLetter(c):
		start := s.off
		for s.off < len(s.src) && (isLetter(s.peek()) || isDigit(s.peek())) {
			s.advance()
		}
		text := s.src[start:s.off]
		return Token{Kind: Lookup(text), Text: text, Pos: p}
	case isDigit(c):
		start := s.off
		for s.off < len(s.src) && isDigit(s.peek()) {
			s.advance()
		}
		return Token{Kind: INT, Text: s.src[start:s.off], Pos: p}
	}

	s.advance()
	two := func(second byte, ifTwo, ifOne Kind) Token {
		if s.peek() == second {
			s.advance()
			return Token{Kind: ifTwo, Text: string(c) + string(second), Pos: p}
		}
		return Token{Kind: ifOne, Text: string(c), Pos: p}
	}
	switch c {
	case '+':
		return Token{Kind: Plus, Text: "+", Pos: p}
	case '-':
		return two('>', Arrow, Minus)
	case '*':
		return Token{Kind: Star, Text: "*", Pos: p}
	case '/':
		return Token{Kind: Slash, Text: "/", Pos: p}
	case '%':
		return Token{Kind: Percent, Text: "%", Pos: p}
	case '&':
		return two('&', AndAnd, Amp)
	case '|':
		if s.peek() == '|' {
			s.advance()
			return Token{Kind: OrOr, Text: "||", Pos: p}
		}
		s.errorf(p, "unexpected character %q (MiniC has no bitwise or)", '|')
		return Token{Kind: ILLEGAL, Text: "|", Pos: p}
	case '!':
		return two('=', NotEq, Not)
	case '<':
		return two('=', Le, Lt)
	case '>':
		return two('=', Ge, Gt)
	case '=':
		return two('=', EqEq, Assign)
	case '.':
		return Token{Kind: Dot, Text: ".", Pos: p}
	case ',':
		return Token{Kind: Comma, Text: ",", Pos: p}
	case ';':
		return Token{Kind: Semi, Text: ";", Pos: p}
	case ':':
		return Token{Kind: Colon, Text: ":", Pos: p}
	case '?':
		return Token{Kind: Question, Text: "?", Pos: p}
	case '(':
		return Token{Kind: LParen, Text: "(", Pos: p}
	case ')':
		return Token{Kind: RParen, Text: ")", Pos: p}
	case '{':
		return Token{Kind: LBrace, Text: "{", Pos: p}
	case '}':
		return Token{Kind: RBrace, Text: "}", Pos: p}
	case '[':
		return Token{Kind: LBrack, Text: "[", Pos: p}
	case ']':
		return Token{Kind: RBrack, Text: "]", Pos: p}
	}
	s.errorf(p, "unexpected character %q", c)
	return Token{Kind: ILLEGAL, Text: string(c), Pos: p}
}

// ScanAll tokenizes the entire input, returning the tokens (ending with EOF)
// and any lexical errors.
func ScanAll(src string) ([]Token, []error) {
	s := NewScanner(src)
	// A C source holds about one token per 3.2 to 5.7 bytes on the
	// corpus, so this is one allocation; a denser source grows the slice.
	toks := make([]Token, 0, len(src)/3+1)
	for {
		t := s.Next()
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, s.Errs()
		}
	}
}
