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
)

// Pos is a position within one translation unit: line and column, both
// 1-based. It carries no file name and no pointer, so the many AST nodes
// that hold one cost the collector nothing to scan; every node belongs to
// exactly one File, whose Name supplies the file where a position leaves
// the tree (constraint provenance, reports, syntax errors).
type Pos struct {
	Line, Col int32
}

// String renders "line:col" in one allocation.
func (p Pos) String() string {
	var b [24]byte
	return string(p.append(b[:0]))
}

// append appends "line:col" to b.
func (p Pos) append(b []byte) []byte {
	b = strconv.AppendInt(b, int64(p.Line), 10)
	b = append(b, ':')
	return strconv.AppendInt(b, int64(p.Col), 10)
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

// kwHash is a perfect hash of the keywords: their length, first and last
// byte tell all 32 apart, and these multipliers map them to distinct
// slots of kwTable.
func kwHash(s string) int {
	return (54*int(s[0]) + int(s[len(s)-1]) + len(s)) & (kwSlots - 1)
}

const kwSlots = 64

// kwTable holds each keyword's kind at its kwHash slot, EOF elsewhere.
var kwTable = func() (t [kwSlots]TokKind) {
	for k := kwAuto; k <= kwWhile; k++ {
		h := kwHash(tokText[k])
		if t[h] != EOF {
			panic("cfront: keywords " + tokText[t[h]] + " and " + tokText[k] + " share a hash slot")
		}
		t[h] = k
	}
	return t
}()

// keyword returns the kind of an identifier-shaped word: its keyword
// kind, or IDENT.
func keyword(s string) TokKind {
	if len(s) < 2 || len(s) > 8 { // from "do" to "continue"
		return IDENT
	}
	if k := kwTable[kwHash(s)]; k != EOF && tokText[k] == s {
		return k
	}
	return IDENT
}

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
	// File names the translation unit; empty for an unnamed source.
	File string
	Pos  Pos
	Msg  string
}

// Error renders "file:line:col: msg", or "line:col: msg" without a file.
func (e *SyntaxError) Error() string {
	b := make([]byte, 0, len(e.File)+len(e.Msg)+26)
	if e.File != "" {
		b = append(append(b, e.File...), ':')
	}
	b = append(e.Pos.append(b), ": "...)
	return string(append(b, e.Msg...))
}
