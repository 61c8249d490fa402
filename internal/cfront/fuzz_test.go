package cfront

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// lexerSeeds is the seed corpus of both lexer fuzz targets.
var lexerSeeds = []string{
	"int main(void) { return 0; }\n",
	`char *s = "str with \"escape\" and \n";`,
	"/* unterminated comment",
	"\"unterminated string",
	"'c' 'x 0x1f 1e9 .5 ... -> <<= >>= ++ --",
	"#include <stdio.h>\nint x;\n",
	"\x00\xff\xfe",
}

// FuzzLexer: the lexer must terminate on every input — either reaching
// EOF or reporting a positioned syntax error — and must make progress on
// every token so a hostile input cannot wedge the front end.
func FuzzLexer(f *testing.F) {
	for _, s := range lexerSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		l := NewLexer("fuzz.c", src)
		// Tokens are at least one byte wide, so len(src)+1 Next calls
		// must reach EOF or an error; more means the lexer is stuck.
		for i := 0; i <= len(src); i++ {
			tok, err := l.Next()
			if err != nil {
				se, ok := err.(*SyntaxError)
				if !ok {
					t.Fatalf("non-syntax error %T: %v", err, err)
				}
				if se.Pos.Line < 1 || se.Pos.Col < 1 {
					t.Fatalf("error without position: %v", err)
				}
				return
			}
			if tok.Kind == EOF {
				return
			}
		}
		t.Fatalf("lexer did not terminate within %d tokens", len(src)+1)
	})
}

// FuzzLexerReference: the table-driven lexer produces the reference
// lexer's token stream — kind, text and position of every token — and
// fails at the same position with the same message. The one intended
// difference is the unexpected-character message, which quotes the
// source byte.
func FuzzLexerReference(f *testing.F) {
	for _, s := range lexerSeeds {
		f.Add(s)
	}
	f.Add(lexerAllTokens)
	// Bytes 0x80-0xFF: the Latin-1 letters among them lex as identifier
	// bytes, the rest are unexpected characters. Each byte gets a seed
	// that places it inside and at the start of an identifier.
	var high strings.Builder
	for c := 0x80; c <= 0xFF; c++ {
		b := string([]byte{byte(c)})
		f.Add("x" + b + "1 " + b + "_")
		high.WriteString(b)
	}
	f.Add(high.String())
	f.Add("caf\xe9 = na\xefve_\xb5s2 + \xc0\xff;")
	f.Add("int \xaa\xba9 = 1; \xd7")
	f.Add("x\xa9y")
	f.Fuzz(func(t *testing.T, src string) {
		l, ref := NewLexer("fuzz.c", src), newRefLexer("fuzz.c", src)
		for i := 0; i <= len(src); i++ {
			refOff := ref.off
			got, err := l.Next()
			want, refErr := ref.Next()
			if (err == nil) != (refErr == nil) {
				t.Fatalf("token %d: got (%v, %v), reference (%v, %v)", i, got, err, want, refErr)
			}
			if err != nil {
				se, rse := err.(*SyntaxError), refErr.(*SyntaxError)
				if se.File != rse.File || se.Pos != rse.Pos {
					t.Fatalf("error at %s:%v, reference at %s:%v", se.File, se.Pos, rse.File, rse.Pos)
				}
				if strings.HasPrefix(rse.Msg, "unexpected character") {
					// The reference skipped whitespace but consumed nothing else.
					c := src[ref.off : ref.off+1]
					if wantMsg := fmt.Sprintf("unexpected character %q", c); se.Msg != wantMsg {
						t.Fatalf("error %q, want %q", se.Msg, wantMsg)
					}
				} else if se.Msg != rse.Msg {
					t.Fatalf("error %q, reference %q", se.Msg, rse.Msg)
				}
				return
			}
			if got != want {
				t.Fatalf("token %d after offset %d: got %+v, reference %+v", i, refOff, got, want)
			}
			if got.Kind == EOF {
				return
			}
		}
		t.Fatalf("lexer did not terminate within %d tokens", len(src)+1)
	})
}

// declaratorSeeds are the declarator shapes of
// TestMultiDimAndMixedDeclarators, seeds of FuzzParse.
var declaratorSeeds = []string{
	"char grid[4][8];\nint *a, b, **c, d[2];\nconst volatile int cv;\n",
	"int (*(*f)(int))(char);",
	"char *const *p;",
	"int (*a[4])(void);",
	"int ((x));",
	"unsigned long sz = sizeof(int (*)[3]);",
	"void *q = (char (*)(int))p;",
	"int g(int (*)(void), char []);",
}

// FuzzParse: the parser must never panic, and an accepted program must
// survive printing — reparsing PrintFile's output gives an equal AST,
// and printing that AST again gives the same text.
func FuzzParse(f *testing.F) {
	for _, s := range lexerSeeds {
		f.Add(s)
	}
	for _, s := range declaratorSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		f1, err := Parse("fuzz.c", src)
		if err != nil {
			return
		}
		printed := PrintFile(f1)
		f2, err := Parse("fuzz.c", printed)
		if err != nil {
			t.Fatalf("reparse: %v\n%s", err, printed)
		}
		if !equalFiles(f1, f2) {
			t.Fatalf("round trip changed the AST:\n%s", printed)
		}
		if again := PrintFile(f2); again != printed {
			t.Fatalf("second print differs:\n--- first ---\n%s--- second ---\n%s", printed, again)
		}
	})
}

// binaryOps spells the 18 binary operators, loosest-binding first.
var binaryOps = []string{
	"||", "&&", "|", "^", "&", "==", "!=", "<", ">", "<=", ">=",
	"<<", ">>", "+", "-", "*", "/", "%",
}

// exprDiff parses src as one expression with the parser and with the
// reference expression parser (expr_ref_test.go), T naming a typedef of
// int for both, and describes the first difference in the tree (node
// kinds, fields and positions), the error, or the token each stopped
// at; "" when they agree.
func exprDiff(src string) string {
	parse := func(ref bool) (Expr, Token, error) {
		p := newParser("expr.c", src)
		p.typedefs["T"] = NewPrim(TInt, "int")
		if err := p.next(); err != nil {
			return nil, Token{}, err
		}
		var e Expr
		var err error
		if ref {
			e, err = p.refParseExpr()
		} else {
			e, err = p.parseExpr()
		}
		return e, p.tok, err
	}
	got, gotTok, err := parse(false)
	want, wantTok, refErr := parse(true)
	switch {
	case (err == nil) != (refErr == nil):
		return fmt.Sprintf("%q: error %v, reference error %v", src, err, refErr)
	case err != nil:
		if err.Error() != refErr.Error() {
			return fmt.Sprintf("%q: error %q, reference error %q", src, err, refErr)
		}
	case !reflect.DeepEqual(got, want):
		return fmt.Sprintf("%q: parsed %s, reference %s", src, ExprString(got), ExprString(want))
	case gotTok != wantTok:
		return fmt.Sprintf("%q: stopped at %+v, reference at %+v", src, gotTok, wantTok)
	}
	return ""
}

// TestBinaryPrecedenceReference: for every pair of binary operators,
// the precedence-climbing parser builds the reference parser's tree
// over plain, cast, unary and conditional operands.
func TestBinaryPrecedenceReference(t *testing.T) {
	templates := []string{
		"a %[1]s b %[2]s c",
		"(T)a %[1]s -b %[2]s *(char *)c",
		"!a %[1]s sizeof b %[2]s ~c++ %[1]s d",
		"a %[1]s b ? c %[2]s d : e %[1]s f",
		"x = a %[1]s (b %[2]s c) %[2]s d, e %[1]s f",
	}
	for _, op1 := range binaryOps {
		for _, op2 := range binaryOps {
			for _, tmpl := range templates {
				if d := exprDiff(fmt.Sprintf(tmpl, op1, op2)); d != "" {
					t.Error(d)
				}
			}
		}
	}
}

// FuzzExprReference: the precedence-climbing parser and the reference
// expression parser agree on every input: the same tree, or the same
// syntax error.
func FuzzExprReference(f *testing.F) {
	for _, op := range binaryOps {
		f.Add("a " + op + " b * c - d " + op + " e")
	}
	for _, s := range []string{
		"x = y += z ? w : v, u",
		"a < b == c & d ^ e | f && g || h ? i : j",
		"(T)(a + b) * -(T)c / sizeof(T) % sizeof x",
		"f(a, b + c)[d].e->g++ - --h",
		"&*p + !q - ~r << 1 >> 2",
		"'c' + \"s\" \"t\" + 1.5e3 + 0x1fUL",
		"a + (b",
		"a ? b : ",
		"(char (*)(int))p + 1",
		"a = b = c *= d <<= e",
		"((((((((a))))))))",
		"a +",
		"* / %",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if d := exprDiff(src); d != "" {
			t.Fatal(d)
		}
	})
}
