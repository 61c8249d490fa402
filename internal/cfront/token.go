// Package cfront is a C front end for the const-inference experiment of
// Section 4 of "A Theory of Type Qualifiers" (PLDI 1999): a lexer,
// recursive-descent parser and AST for a realistic subset of ANSI C —
// declarations with full declarator syntax, typedefs, structs, unions,
// enums, the complete expression grammar with casts and sizeof, all
// statements, variadic functions, and the const/volatile qualifiers.
//
// Preprocessor directives are skipped line-wise (the analysis consumes
// preprocessed or preprocessor-free sources, as the paper's experiments
// effectively did).
package cfront

import (
	"fmt"
	"strconv"
	"strings"
)

// Pos is a source position.
type Pos struct {
	File string
	Line int
	Col  int
}

// String renders "file:line:col", or "line:col" when File is empty, in
// one allocation.
func (p Pos) String() string {
	var num [20]byte
	var b strings.Builder
	b.Grow(len(p.File) + 2*len(num))
	if p.File != "" {
		b.WriteString(p.File)
		b.WriteByte(':')
	}
	b.Write(strconv.AppendInt(num[:0], int64(p.Line), 10))
	b.WriteByte(':')
	b.Write(strconv.AppendInt(num[:0], int64(p.Col), 10))
	return b.String()
}

// IsValid reports whether the position was set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// TokKind enumerates C token kinds.
type TokKind int

// Token kinds.
const (
	EOF TokKind = iota
	IDENT
	INTLIT
	FLOATLIT
	CHARLIT
	STRLIT

	// Keywords.
	kwAuto
	kwBreak
	kwCase
	kwChar
	kwConst
	kwContinue
	kwDefault
	kwDo
	kwDouble
	kwElse
	kwEnum
	kwExtern
	kwFloat
	kwFor
	kwGoto
	kwIf
	kwInt
	kwLong
	kwRegister
	kwReturn
	kwShort
	kwSigned
	kwSizeof
	kwStatic
	kwStruct
	kwSwitch
	kwTypedef
	kwUnion
	kwUnsigned
	kwVoid
	kwVolatile
	kwWhile

	// Punctuation and operators.
	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACK   // [
	RBRACK   // ]
	SEMI     // ;
	COMMA    // ,
	ELLIPSIS // ...
	DOT      // .
	ARROW    // ->
	INC      // ++
	DEC      // --
	AMP      // &
	STAR     // *
	PLUS     // +
	MINUS    // -
	TILDE    // ~
	NOT      // !
	SLASH    // /
	PERCENT  // %
	SHL      // <<
	SHR      // >>
	LT       // <
	GT       // >
	LE       // <=
	GE       // >=
	EQ       // ==
	NE       // !=
	CARET    // ^
	PIPE     // |
	ANDAND   // &&
	OROR     // ||
	QUESTION // ?
	COLON    // :
	ASSIGN   // =
	MULEQ    // *=
	DIVEQ    // /=
	MODEQ    // %=
	ADDEQ    // +=
	SUBEQ    // -=
	SHLEQ    // <<=
	SHREQ    // >>=
	ANDEQ    // &=
	XOREQ    // ^=
	OREQ     // |=
)

// tokText spells every keyword and punctuator kind as it appears in
// source. Punctuator tokens take their Text from it.
var tokText = [...]string{
	kwAuto: "auto", kwBreak: "break", kwCase: "case", kwChar: "char",
	kwConst: "const", kwContinue: "continue", kwDefault: "default",
	kwDo: "do", kwDouble: "double", kwElse: "else", kwEnum: "enum",
	kwExtern: "extern", kwFloat: "float", kwFor: "for", kwGoto: "goto",
	kwIf: "if", kwInt: "int", kwLong: "long", kwRegister: "register",
	kwReturn: "return", kwShort: "short", kwSigned: "signed",
	kwSizeof: "sizeof", kwStatic: "static", kwStruct: "struct",
	kwSwitch: "switch", kwTypedef: "typedef", kwUnion: "union",
	kwUnsigned: "unsigned", kwVoid: "void", kwVolatile: "volatile",
	kwWhile: "while",

	LPAREN: "(", RPAREN: ")", LBRACE: "{", RBRACE: "}",
	LBRACK: "[", RBRACK: "]", SEMI: ";", COMMA: ",",
	ELLIPSIS: "...", DOT: ".", ARROW: "->", INC: "++", DEC: "--",
	AMP: "&", STAR: "*", PLUS: "+", MINUS: "-", TILDE: "~",
	NOT: "!", SLASH: "/", PERCENT: "%", SHL: "<<", SHR: ">>",
	LT: "<", GT: ">", LE: "<=", GE: ">=", EQ: "==", NE: "!=",
	CARET: "^", PIPE: "|", ANDAND: "&&", OROR: "||",
	QUESTION: "?", COLON: ":", ASSIGN: "=",
	MULEQ: "*=", DIVEQ: "/=", MODEQ: "%=", ADDEQ: "+=",
	SUBEQ: "-=", SHLEQ: "<<=", SHREQ: ">>=", ANDEQ: "&=",
	XOREQ: "^=", OREQ: "|=",
}

// keywords maps each keyword's spelling to its kind.
var keywords = func() map[string]TokKind {
	m := make(map[string]TokKind, kwWhile-kwAuto+1)
	for k := kwAuto; k <= kwWhile; k++ {
		m[tokText[k]] = k
	}
	return m
}()

// tokNames names every kind for messages; keywords and punctuators are
// their quoted spelling.
var tokNames = func() [len(tokText)]string {
	names := [len(tokText)]string{
		EOF: "end of file", IDENT: "identifier", INTLIT: "integer literal",
		FLOATLIT: "float literal", CHARLIT: "character literal", STRLIT: "string literal",
	}
	for k := kwAuto; int(k) < len(tokText); k++ {
		names[k] = "'" + tokText[k] + "'"
	}
	return names
}()

func (k TokKind) String() string {
	if k >= 0 && int(k) < len(tokNames) {
		return tokNames[k]
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string
	Pos  Pos
}

// SyntaxError is a lexing or parsing error with a source position.
type SyntaxError struct {
	Pos Pos
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
}
