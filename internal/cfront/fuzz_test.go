package cfront

import (
	"fmt"
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
				if se.Pos != rse.Pos {
					t.Fatalf("error at %v, reference at %v", se.Pos, rse.Pos)
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
