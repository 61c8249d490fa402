package cfront

// The reference lexer: the lexer as it was before scanning became
// table-driven, kept verbatim (names prefixed "ref", Tokenize left out;
// positions since reduced to line:col, the file moved to SyntaxError)
// as the oracle of FuzzLexerReference. It builds map literals per
// operator token, so it must never move out of test code.

import (
	"strings"
	"unicode"
)

// refLexer tokenizes C source. Preprocessor directives are skipped one line
// at a time (with backslash continuations honored).
type refLexer struct {
	src  string
	file string
	off  int
	line int
	col  int
}

// newRefLexer creates a lexer over src; file names it in syntax errors.
func newRefLexer(file, src string) *refLexer {
	return &refLexer{src: src, file: file, line: 1, col: 1}
}

func (l *refLexer) pos() Pos { return Pos{Line: int32(l.line), Col: int32(l.col)} }

func (l *refLexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *refLexer) peekAt(i int) byte {
	if l.off+i >= len(l.src) {
		return 0
	}
	return l.src[l.off+i]
}

func (l *refLexer) advance() byte {
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
func (l *refLexer) skip() error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' || c == '\v':
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
				return &SyntaxError{File: l.file, Pos: start, Msg: "unterminated comment"}
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
func (l *refLexer) lineIndentCol() int {
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

func refIsIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func refIsIdentCont(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || c >= '0' && c <= '9'
}

func refIsDigit(c byte) bool { return c >= '0' && c <= '9' }

func refIsHexDigit(c byte) bool {
	return refIsDigit(c) || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// Next returns the next token.
func (l *refLexer) Next() (Token, error) {
	if err := l.skip(); err != nil {
		return Token{}, err
	}
	p := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: EOF, Pos: p}, nil
	}
	c := l.peek()

	switch {
	case refIsIdentStart(c):
		start := l.off
		for l.off < len(l.src) && refIsIdentCont(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.off]
		if kw, ok := refKeywords[text]; ok {
			return Token{Kind: kw, Text: text, Pos: p}, nil
		}
		return Token{Kind: IDENT, Text: text, Pos: p}, nil

	case refIsDigit(c) || c == '.' && refIsDigit(l.peekAt(1)):
		return l.number(p)

	case c == '\'':
		return l.charLit(p)

	case c == '"':
		return l.strLit(p)
	}

	// Operators and punctuation, longest match first.
	three := l.slice(3)
	switch three {
	case "...", "<<=", ">>=":
		l.advanceN(3)
		kinds := map[string]TokKind{"...": ELLIPSIS, "<<=": SHLEQ, ">>=": SHREQ}
		return Token{Kind: kinds[three], Text: three, Pos: p}, nil
	}
	two := l.slice(2)
	twoKinds := map[string]TokKind{
		"->": ARROW, "++": INC, "--": DEC, "<<": SHL, ">>": SHR,
		"<=": LE, ">=": GE, "==": EQ, "!=": NE, "&&": ANDAND, "||": OROR,
		"*=": MULEQ, "/=": DIVEQ, "%=": MODEQ, "+=": ADDEQ, "-=": SUBEQ,
		"&=": ANDEQ, "^=": XOREQ, "|=": OREQ,
	}
	if k, ok := twoKinds[two]; ok {
		l.advanceN(2)
		return Token{Kind: k, Text: two, Pos: p}, nil
	}
	oneKinds := map[byte]TokKind{
		'(': LPAREN, ')': RPAREN, '{': LBRACE, '}': RBRACE,
		'[': LBRACK, ']': RBRACK, ';': SEMI, ',': COMMA, '.': DOT,
		'&': AMP, '*': STAR, '+': PLUS, '-': MINUS, '~': TILDE, '!': NOT,
		'/': SLASH, '%': PERCENT, '<': LT, '>': GT, '^': CARET, '|': PIPE,
		'?': QUESTION, ':': COLON, '=': ASSIGN,
	}
	if k, ok := oneKinds[c]; ok {
		l.advance()
		return Token{Kind: k, Text: string(rune(c)), Pos: p}, nil
	}
	return Token{}, &SyntaxError{File: l.file, Pos: p, Msg: "unexpected character " + strings.TrimSpace(string(rune(c)))}
}

func (l *refLexer) slice(n int) string {
	if l.off+n > len(l.src) {
		return ""
	}
	return l.src[l.off : l.off+n]
}

func (l *refLexer) advanceN(n int) {
	for i := 0; i < n; i++ {
		l.advance()
	}
}

func (l *refLexer) number(p Pos) (Token, error) {
	start := l.off
	isFloat := false
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		l.advanceN(2)
		for l.off < len(l.src) && refIsHexDigit(l.peek()) {
			l.advance()
		}
	} else {
		for l.off < len(l.src) && refIsDigit(l.peek()) {
			l.advance()
		}
		if l.peek() == '.' {
			isFloat = true
			l.advance()
			for l.off < len(l.src) && refIsDigit(l.peek()) {
				l.advance()
			}
		}
		if l.peek() == 'e' || l.peek() == 'E' {
			next := l.peekAt(1)
			if refIsDigit(next) || (next == '+' || next == '-') && refIsDigit(l.peekAt(2)) {
				isFloat = true
				l.advance()
				if l.peek() == '+' || l.peek() == '-' {
					l.advance()
				}
				for l.off < len(l.src) && refIsDigit(l.peek()) {
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

func (l *refLexer) charLit(p Pos) (Token, error) {
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
	return Token{}, &SyntaxError{File: l.file, Pos: p, Msg: "unterminated character literal"}
}

func (l *refLexer) strLit(p Pos) (Token, error) {
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
	return Token{}, &SyntaxError{File: l.file, Pos: p, Msg: "unterminated string literal"}
}

var refKeywords = map[string]TokKind{
	"auto": kwAuto, "break": kwBreak, "case": kwCase, "char": kwChar,
	"const": kwConst, "continue": kwContinue, "default": kwDefault,
	"do": kwDo, "double": kwDouble, "else": kwElse, "enum": kwEnum,
	"extern": kwExtern, "float": kwFloat, "for": kwFor, "goto": kwGoto,
	"if": kwIf, "int": kwInt, "long": kwLong, "register": kwRegister,
	"return": kwReturn, "short": kwShort, "signed": kwSigned,
	"sizeof": kwSizeof, "static": kwStatic, "struct": kwStruct,
	"switch": kwSwitch, "typedef": kwTypedef, "union": kwUnion,
	"unsigned": kwUnsigned, "void": kwVoid, "volatile": kwVolatile,
	"while": kwWhile,
}
