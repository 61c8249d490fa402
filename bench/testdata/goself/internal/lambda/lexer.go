package lambda

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokKind enumerates lexical token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokLet
	tokLetRec
	tokIn
	tokNi
	tokFn
	tokIf
	tokThen
	tokElse
	tokFi
	tokRef
	tokLParen
	tokRParen
	tokLBrack
	tokRBrack
	tokArrow  // =>
	tokAssign // :=
	tokBang   // !
	tokAt     // @
	tokPipe   // |
	tokCaret  // ^
	tokComma  // ,
	tokSemi   // ;
	tokEq     // =
	tokEqEq   // ==
	tokLt     // <
	tokPlus   // +
	tokMinus  // -
	tokStar   // *
	tokSlash  // /
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokInt:
		return "integer"
	case tokLet:
		return "'let'"
	case tokLetRec:
		return "'letrec'"
	case tokIn:
		return "'in'"
	case tokNi:
		return "'ni'"
	case tokFn:
		return "'fn'"
	case tokIf:
		return "'if'"
	case tokThen:
		return "'then'"
	case tokElse:
		return "'else'"
	case tokFi:
		return "'fi'"
	case tokRef:
		return "'ref'"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBrack:
		return "'['"
	case tokRBrack:
		return "']'"
	case tokArrow:
		return "'=>'"
	case tokAssign:
		return "':='"
	case tokBang:
		return "'!'"
	case tokAt:
		return "'@'"
	case tokPipe:
		return "'|'"
	case tokCaret:
		return "'^'"
	case tokComma:
		return "','"
	case tokSemi:
		return "';'"
	case tokEq:
		return "'='"
	case tokEqEq:
		return "'=='"
	case tokLt:
		return "'<'"
	case tokPlus:
		return "'+'"
	case tokMinus:
		return "'-'"
	case tokStar:
		return "'*'"
	case tokSlash:
		return "'/'"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

var keywords = map[string]tokKind{
	"let":    tokLet,
	"letrec": tokLetRec,
	"in":     tokIn,
	"ni":     tokNi,
	"fn":     tokFn,
	"if":     tokIf,
	"then":   tokThen,
	"else":   tokElse,
	"fi":     tokFi,
	"ref":    tokRef,
}

type token struct {
	kind tokKind
	text string
	val  int64
	pos  Pos
}

// SyntaxError is a lexing or parsing error with a source position.
type SyntaxError struct {
	Pos Pos
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%s: syntax error: %s", e.Pos, e.Msg)
}

type lexer struct {
	src  string
	file string
	off  int
	line int
	col  int
}

func newLexer(file, src string) *lexer {
	return &lexer{src: src, file: file, line: 1, col: 1}
}

func (l *lexer) pos() Pos { return Pos{File: l.file, Line: l.line, Col: l.col} }

func (l *lexer) peekByte() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *lexer) advance() byte {
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

func (l *lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.advance()
		case c == '#': // line comment
			for l.off < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '(' && l.off+1 < len(l.src) && l.src[l.off+1] == '*': // (* ... *)
			start := l.pos()
			l.advance()
			l.advance()
			depth := 1
			for depth > 0 {
				if l.off >= len(l.src) {
					return &SyntaxError{Pos: start, Msg: "unterminated comment"}
				}
				c := l.advance()
				if c == '(' && l.peekByte() == '*' {
					l.advance()
					depth++
				} else if c == '*' && l.peekByte() == ')' {
					l.advance()
					depth--
				}
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentCont(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

func (l *lexer) next() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	p := l.pos()
	if l.off >= len(l.src) {
		return token{kind: tokEOF, pos: p}, nil
	}
	c := l.peekByte()
	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && isIdentCont(l.peekByte()) {
			l.advance()
		}
		text := l.src[start:l.off]
		if k, ok := keywords[text]; ok {
			return token{kind: k, text: text, pos: p}, nil
		}
		return token{kind: tokIdent, text: text, pos: p}, nil
	case c >= '0' && c <= '9':
		start := l.off
		for l.off < len(l.src) && l.peekByte() >= '0' && l.peekByte() <= '9' {
			l.advance()
		}
		text := l.src[start:l.off]
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return token{}, &SyntaxError{Pos: p, Msg: "integer literal out of range: " + text}
		}
		return token{kind: tokInt, text: text, val: v, pos: p}, nil
	}
	l.advance()
	switch c {
	case '(':
		return token{kind: tokLParen, text: "(", pos: p}, nil
	case ')':
		return token{kind: tokRParen, text: ")", pos: p}, nil
	case '[':
		return token{kind: tokLBrack, text: "[", pos: p}, nil
	case ']':
		return token{kind: tokRBrack, text: "]", pos: p}, nil
	case '!':
		return token{kind: tokBang, text: "!", pos: p}, nil
	case '@':
		return token{kind: tokAt, text: "@", pos: p}, nil
	case '|':
		return token{kind: tokPipe, text: "|", pos: p}, nil
	case '^':
		return token{kind: tokCaret, text: "^", pos: p}, nil
	case ',':
		return token{kind: tokComma, text: ",", pos: p}, nil
	case ';':
		return token{kind: tokSemi, text: ";", pos: p}, nil
	case '+':
		return token{kind: tokPlus, text: "+", pos: p}, nil
	case '-':
		return token{kind: tokMinus, text: "-", pos: p}, nil
	case '*':
		return token{kind: tokStar, text: "*", pos: p}, nil
	case '/':
		return token{kind: tokSlash, text: "/", pos: p}, nil
	case '<':
		return token{kind: tokLt, text: "<", pos: p}, nil
	case '=':
		switch l.peekByte() {
		case '>':
			l.advance()
			return token{kind: tokArrow, text: "=>", pos: p}, nil
		case '=':
			l.advance()
			return token{kind: tokEqEq, text: "==", pos: p}, nil
		default:
			return token{kind: tokEq, text: "=", pos: p}, nil
		}
	case ':':
		if l.peekByte() == '=' {
			l.advance()
			return token{kind: tokAssign, text: ":=", pos: p}, nil
		}
		return token{}, &SyntaxError{Pos: p, Msg: "unexpected ':' (did you mean ':='?)"}
	}
	msg := fmt.Sprintf("unexpected character %q", string(rune(c)))
	if !strings.ContainsRune(" \t", rune(c)) {
		return token{}, &SyntaxError{Pos: p, Msg: msg}
	}
	return token{}, &SyntaxError{Pos: p, Msg: msg}
}
