package cfront

import (
	"fmt"
	"unicode"
)

// Lexer tokenizes C source. Preprocessor directives are skipped one line
// at a time (with backslash continuations honored).
type Lexer struct {
	src  string
	file string
	off  int
	line int
	col  int
}

// NewLexer creates a lexer over src; file names it in syntax errors.
func NewLexer(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1, col: 1}
}

func (l *Lexer) pos() Pos { return Pos{Line: int32(l.line), Col: int32(l.col)} }

// errAt builds a syntax error at p in the lexer's file.
func (l *Lexer) errAt(p Pos, msg string) *SyntaxError {
	return &SyntaxError{File: l.file, Pos: p, Msg: msg}
}

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peekAt(i int) byte {
	if l.off+i >= len(l.src) {
		return 0
	}
	return l.src[l.off+i]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// skip consumes whitespace, comments, and preprocessor lines. It reports
// an error for unterminated block comments.
func (l *Lexer) skip() error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case byteClass[c]&bcSpace != 0:
			l.advance()
		case c == '/' && l.peekAt(1) == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekAt(1) == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peekAt(1) == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errAt(start, "unterminated comment")
			}
		case c == '#' && l.col == l.lineIndentCol():
			// Preprocessor directive: skip to end of line, honoring
			// backslash-newline continuations.
			for l.off < len(l.src) {
				c := l.advance()
				if c == '\\' && l.peek() == '\n' {
					l.advance()
					continue
				}
				if c == '\n' {
					break
				}
			}
		default:
			return nil
		}
	}
	return nil
}

// lineIndentCol returns the column of the first non-blank character on
// the current line if the lexer is positioned at it; directives are
// recognized only at the start of a line (allowing leading whitespace).
func (l *Lexer) lineIndentCol() int {
	// Walk back from the current offset to the line start and check that
	// everything before is whitespace.
	i := l.off - 1
	col := l.col
	for i >= 0 && l.src[i] != '\n' {
		if l.src[i] != ' ' && l.src[i] != '\t' {
			return -1
		}
		i--
	}
	return col
}

// Byte classes, one bit each, looked up in byteClass.
const (
	bcSpace      = 1 << iota // ' ', \t, \r, \n, \f, \v
	bcDigit                  // 0-9
	bcHexDigit               // 0-9, a-f, A-F
	bcIdentStart             // '_' or a letter
	bcIdentCont              // '_', a letter or a digit
)

// byteClass classifies every byte value. A byte from 0x80 to 0xFF is a
// letter when its Latin-1 rune is (unicode.IsLetter(rune(c))), so such
// bytes lex as identifier characters one byte at a time.
var byteClass = func() (t [256]uint8) {
	for i := range t {
		c := byte(i)
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' || c == '\v' {
			t[i] |= bcSpace
		}
		if c >= '0' && c <= '9' {
			t[i] |= bcDigit | bcHexDigit | bcIdentCont
		}
		if c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F' {
			t[i] |= bcHexDigit
		}
		if c == '_' || unicode.IsLetter(rune(c)) {
			t[i] |= bcIdentStart | bcIdentCont
		}
	}
	return t
}()

func isDigit(c byte) bool { return byteClass[c]&bcDigit != 0 }

func isHexDigit(c byte) bool { return byteClass[c]&bcHexDigit != 0 }

// Next returns the next token. Scanning a token allocates nothing; only
// an error does.
func (l *Lexer) Next() (Token, error) {
	if err := l.skip(); err != nil {
		return Token{}, err
	}
	p := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: EOF, Pos: p}, nil
	}
	c := l.peek()

	switch {
	case byteClass[c]&bcIdentStart != 0:
		end := l.off + 1
		for end < len(l.src) && byteClass[l.src[end]]&bcIdentCont != 0 {
			end++
		}
		text := l.src[l.off:end]
		l.col += end - l.off // identifiers hold no newline
		l.off = end
		return Token{Kind: keyword(text), Text: text, Pos: p}, nil

	case isDigit(c) || c == '.' && isDigit(l.peekAt(1)):
		return l.number(p)

	case c == '\'':
		return l.charLit(p)

	case c == '"':
		return l.strLit(p)
	}

	if k := l.punct(c); k != EOF {
		text := tokText[k]
		l.off += len(text)
		l.col += len(text)
		return Token{Kind: k, Text: text, Pos: p}, nil
	}
	return Token{}, l.errAt(p, fmt.Sprintf("unexpected character %q", l.src[l.off:l.off+1]))
}

// punct returns the kind of the longest operator or punctuator at the
// current offset, whose first byte is c, or EOF when c starts none.
func (l *Lexer) punct(c byte) TokKind {
	c1 := l.peekAt(1)
	switch c {
	case '(':
		return LPAREN
	case ')':
		return RPAREN
	case '{':
		return LBRACE
	case '}':
		return RBRACE
	case '[':
		return LBRACK
	case ']':
		return RBRACK
	case ';':
		return SEMI
	case ',':
		return COMMA
	case '~':
		return TILDE
	case '?':
		return QUESTION
	case ':':
		return COLON
	case '.':
		if c1 == '.' && l.peekAt(2) == '.' {
			return ELLIPSIS
		}
		return DOT
	case '-':
		switch c1 {
		case '>':
			return ARROW
		case '-':
			return DEC
		case '=':
			return SUBEQ
		}
		return MINUS
	case '+':
		switch c1 {
		case '+':
			return INC
		case '=':
			return ADDEQ
		}
		return PLUS
	case '<':
		switch c1 {
		case '<':
			if l.peekAt(2) == '=' {
				return SHLEQ
			}
			return SHL
		case '=':
			return LE
		}
		return LT
	case '>':
		switch c1 {
		case '>':
			if l.peekAt(2) == '=' {
				return SHREQ
			}
			return SHR
		case '=':
			return GE
		}
		return GT
	case '&':
		switch c1 {
		case '&':
			return ANDAND
		case '=':
			return ANDEQ
		}
		return AMP
	case '|':
		switch c1 {
		case '|':
			return OROR
		case '=':
			return OREQ
		}
		return PIPE
	}
	// The rest are one byte, or two with a trailing '='.
	var one, eq TokKind
	switch c {
	case '=':
		one, eq = ASSIGN, EQ
	case '!':
		one, eq = NOT, NE
	case '*':
		one, eq = STAR, MULEQ
	case '/':
		one, eq = SLASH, DIVEQ
	case '%':
		one, eq = PERCENT, MODEQ
	case '^':
		one, eq = CARET, XOREQ
	default:
		return EOF
	}
	if c1 == '=' {
		return eq
	}
	return one
}

func (l *Lexer) advanceN(n int) {
	for i := 0; i < n; i++ {
		l.advance()
	}
}

func (l *Lexer) number(p Pos) (Token, error) {
	start := l.off
	isFloat := false
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		l.advanceN(2)
		for l.off < len(l.src) && isHexDigit(l.peek()) {
			l.advance()
		}
	} else {
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		if l.peek() == '.' {
			isFloat = true
			l.advance()
			for l.off < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		}
		if l.peek() == 'e' || l.peek() == 'E' {
			next := l.peekAt(1)
			if isDigit(next) || (next == '+' || next == '-') && isDigit(l.peekAt(2)) {
				isFloat = true
				l.advance()
				if l.peek() == '+' || l.peek() == '-' {
					l.advance()
				}
				for l.off < len(l.src) && isDigit(l.peek()) {
					l.advance()
				}
			}
		}
	}
	// Suffixes: u, l, ul, ll, f…
	for {
		c := l.peek()
		if c == 'u' || c == 'U' || c == 'l' || c == 'L' {
			l.advance()
			continue
		}
		if isFloat && (c == 'f' || c == 'F') {
			l.advance()
			continue
		}
		break
	}
	kind := INTLIT
	if isFloat {
		kind = FLOATLIT
	}
	return Token{Kind: kind, Text: l.src[start:l.off], Pos: p}, nil
}

func (l *Lexer) charLit(p Pos) (Token, error) {
	start := l.off
	l.advance() // '
	for l.off < len(l.src) {
		c := l.advance()
		if c == '\\' && l.off < len(l.src) {
			l.advance()
			continue
		}
		if c == '\'' {
			return Token{Kind: CHARLIT, Text: l.src[start:l.off], Pos: p}, nil
		}
		if c == '\n' {
			break
		}
	}
	return Token{}, l.errAt(p, "unterminated character literal")
}

func (l *Lexer) strLit(p Pos) (Token, error) {
	start := l.off
	l.advance() // "
	for l.off < len(l.src) {
		c := l.advance()
		if c == '\\' && l.off < len(l.src) {
			l.advance()
			continue
		}
		if c == '"' {
			return Token{Kind: STRLIT, Text: l.src[start:l.off], Pos: p}, nil
		}
		if c == '\n' {
			break
		}
	}
	return Token{}, l.errAt(p, "unterminated string literal")
}

// Tokenize lexes the entire input, mainly for tests.
func Tokenize(file, src string) ([]Token, error) {
	l := NewLexer(file, src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == EOF {
			return out, nil
		}
	}
}
