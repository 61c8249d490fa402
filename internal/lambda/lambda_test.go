package lambda

import (
	"math/rand"
	"strings"
	"testing"
)

func TestParseBasics(t *testing.T) {
	cases := []struct {
		src  string
		want string // printed normal form; empty means src itself
	}{
		{"x", ""},
		{"42", ""},
		{"()", ""},
		{"fn x => x", ""},
		{"f x", ""},
		{"f x y", ""}, // left associative application
		{"if x then 1 else 0 fi", ""},
		{"let x = 1 in x ni", ""},
		{"ref 1", ""},
		{"!x", ""},
		{"x := 1", ""},
		{"@const 5", ""},
		{"@const @nonzero 5", ""},
		{"x |[^const]", ""},
		{"x |[nonzero]", ""},
		{"x |[nonzero, ^const]", ""},
		{"1 + 2 * 3", ""},
		{"(1 + 2) * 3", ""},
		{"1 < 2", ""},
		{"1 == 2", ""},
		{"1 - 2 / 3", ""},
		{"a; b", "let _ = a in b ni"},
		{"x := fn y => y", ""},
		{"let id = fn x => x in id 1 ni", ""},
		{"!(f x)", ""},
		{"ref ref 1", ""},
		{"f (fn x => x)", ""},
		{"(!x) |[nonzero]", "(!x) |[nonzero]"},
	}
	for _, c := range cases {
		e, err := Parse("t", c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		want := c.want
		if want == "" {
			want = c.src
		}
		got := Print(e)
		// Normalize: reparse both and compare trees, since spacing differs.
		we, err := Parse("t", want)
		if err != nil {
			t.Fatalf("bad want %q: %v", want, err)
		}
		if !Equal(e, we) {
			t.Errorf("Parse(%q) printed as %q, want equivalent of %q", c.src, got, want)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	// f x + g y must parse as (f x) + (g y).
	e := MustParse("f x + g y")
	bin, ok := e.(*Bin)
	if !ok || bin.Op != OpAdd {
		t.Fatalf("got %T", e)
	}
	if _, ok := bin.L.(*App); !ok {
		t.Error("left operand not an application")
	}
	// x := y := z is right associative.
	e = MustParse("a := b")
	if _, ok := e.(*Assign); !ok {
		t.Fatalf("got %T", e)
	}
	// !x |[nonzero] binds the assertion to x, not to !x.
	e = MustParse("!x |[nonzero]")
	d, ok := e.(*Deref)
	if !ok {
		t.Fatalf("got %T", e)
	}
	if _, ok := d.E.(*Assert); !ok {
		t.Error("assertion did not bind tighter than deref")
	}
	// Application is left-associative.
	e = MustParse("f a b")
	app := e.(*App)
	if _, ok := app.Fn.(*App); !ok {
		t.Error("application not left-associative")
	}
	// if/let are self-delimiting and usable as application operands.
	e = MustParse("f let x = 1 in x ni")
	if _, ok := e.(*App); !ok {
		t.Errorf("let as operand: got %T", e)
	}
}

func TestParseComments(t *testing.T) {
	e, err := Parse("t", `
		# line comment
		let x = 1 in (* block (* nested *) comment *) x ni`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*Let); !ok {
		t.Errorf("got %T", e)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"let x 1 in x ni",
		"let x = 1 in x",
		"if x then y fi",
		"fn => x",
		"fn x x",
		"x |[",
		"x |[]",
		"x | y",
		"(x",
		"x)",
		"x :",
		"f fn x => x", // unparenthesized lambda as operand
		"@ 5",
		"99999999999999999999999",
		"$",
		"(* unterminated",
	}
	for _, src := range cases {
		if _, err := Parse("t", src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		} else if _, ok := err.(*SyntaxError); !ok {
			t.Errorf("Parse(%q) error type %T, want *SyntaxError", src, err)
		}
	}

	// Nesting past maxDepth is a syntax error, not a stack overflow;
	// each input is well formed apart from its depth.
	const deep = 200000
	for name, src := range map[string]string{
		"parens": strings.Repeat("(", deep) + "1" + strings.Repeat(")", deep),
		"fn":     strings.Repeat("fn x => ", deep) + "x",
		"deref":  strings.Repeat("!", deep) + "x",
		"ref":    strings.Repeat("ref ", deep) + "1",
		"annot":  strings.Repeat("@q ", deep) + "1",
		"seq":    strings.Repeat("1;", deep) + "1",
	} {
		_, err := Parse("t", src)
		if se, ok := err.(*SyntaxError); !ok || !strings.Contains(se.Msg, "nesting deeper than") {
			t.Errorf("Parse(deep %s) = %v, want a nesting syntax error", name, err)
		}
	}
	shallow := strings.Repeat("(", 1000) + "1" + strings.Repeat(")", 1000)
	if _, err := Parse("t", shallow); err != nil {
		t.Errorf("Parse(1000 nested parens) = %v, want success", err)
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Parse("prog.q", "let x = in x ni")
	if err == nil {
		t.Fatal("no error")
	}
	if !strings.Contains(err.Error(), "prog.q:1:") {
		t.Errorf("error lacks position: %v", err)
	}
}

func TestPositions(t *testing.T) {
	e := MustParse("let x = 1 in\n  x := 2 ni")
	l := e.(*Let)
	if l.P.Line != 1 || l.P.Col != 1 {
		t.Errorf("let position = %v", l.P)
	}
	asn := l.Body.(*Assign)
	if asn.P.Line != 2 {
		t.Errorf("assign position = %v", asn.P)
	}
	if !asn.P.IsValid() {
		t.Error("position invalid")
	}
	var zero Pos
	if zero.IsValid() {
		t.Error("zero position valid")
	}
	if got := (Pos{Line: 3, Col: 4}).String(); got != "3:4" {
		t.Errorf("Pos.String = %q", got)
	}
	if got := (Pos{File: "f", Line: 3, Col: 4}).String(); got != "f:3:4" {
		t.Errorf("Pos.String = %q", got)
	}
}

func TestIsValue(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"x", true},
		{"5", true},
		{"()", true},
		{"fn x => f x", true},
		{"@const 5", true},
		{"@const (f x)", false},
		{"f x", false},
		{"ref 1", false},
		{"!x", false},
		{"x := 1", false},
		{"let x = 1 in x ni", false},
		{"if 1 then 2 else 3 fi", false},
		{"1 + 2", false},
		{"x |[nonzero]", false},
	}
	for _, c := range cases {
		if got := IsValue(MustParse(c.src)); got != c.want {
			t.Errorf("IsValue(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestStrip(t *testing.T) {
	e := MustParse(`let x = @const ref (5 |[nonzero]) in if !x then x := 1 else () fi; f x ni`)
	s := Strip(e)
	// The stripped tree must contain no Annot or Assert nodes.
	var walk func(Expr) bool
	walk = func(e Expr) bool {
		switch e := e.(type) {
		case *Annot, *Assert:
			return false
		case *Lam:
			return walk(e.Body)
		case *App:
			return walk(e.Fn) && walk(e.Arg)
		case *If:
			return walk(e.Cond) && walk(e.Then) && walk(e.Else)
		case *Let:
			return walk(e.Init) && walk(e.Body)
		case *Ref:
			return walk(e.E)
		case *Deref:
			return walk(e.E)
		case *Assign:
			return walk(e.Lhs) && walk(e.Rhs)
		case *Bin:
			return walk(e.L) && walk(e.R)
		default:
			return true
		}
	}
	if !walk(s) {
		t.Error("Strip left qualifier syntax behind")
	}
	want := MustParse(`let x = ref 5 in if !x then x := 1 else () fi; f x ni`)
	if !Equal(s, want) {
		t.Errorf("Strip mismatch:\n got %s\nwant %s", Print(s), Print(want))
	}
	// Strip is idempotent.
	if !Equal(Strip(s), s) {
		t.Error("Strip not idempotent")
	}
}

// genExpr builds a random well-formed expression for round-trip testing.
func genExpr(rng *rand.Rand, depth int, vars []string) Expr {
	if depth <= 0 || rng.Intn(6) == 0 {
		switch rng.Intn(4) {
		case 0:
			return &IntLit{Val: int64(rng.Intn(100))}
		case 1:
			return &UnitLit{}
		case 2:
			if len(vars) > 0 {
				return &Var{Name: vars[rng.Intn(len(vars))]}
			}
			return &IntLit{Val: 7}
		default:
			return &Var{Name: "g" + string(rune('a'+rng.Intn(26)))}
		}
	}
	sub := func() Expr { return genExpr(rng, depth-1, vars) }
	switch rng.Intn(12) {
	case 0:
		name := "x" + string(rune('a'+rng.Intn(26)))
		return &Lam{Param: name, Body: genExpr(rng, depth-1, append(vars, name))}
	case 1:
		return &App{Fn: sub(), Arg: sub()}
	case 2:
		return &If{Cond: sub(), Then: sub(), Else: sub()}
	case 3:
		name := "y" + string(rune('a'+rng.Intn(26)))
		return &Let{Name: name, Init: sub(), Body: genExpr(rng, depth-1, append(vars, name))}
	case 4:
		return &Ref{E: sub()}
	case 5:
		return &Deref{E: sub()}
	case 6:
		return &Assign{Lhs: sub(), Rhs: sub()}
	case 7:
		return &Annot{Qual: "const", E: sub()}
	case 8:
		if rng.Intn(2) == 0 {
			return &Assert{E: sub(), Forbid: []string{"const"}}
		}
		return &Assert{E: sub(), Require: []string{"nonzero"}}
	case 9:
		return &Bin{Op: BinOp(rng.Intn(6)), L: sub(), R: sub()}
	case 10:
		return &Annot{Qual: "nonzero", E: sub()}
	default:
		return &Assert{E: sub(), Require: []string{"nonzero"}, Forbid: []string{"const"}}
	}
}

// TestPrintParseRoundTrip: Parse(Print(e)) == e for random trees.
func TestPrintParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		e := genExpr(rng, 5, nil)
		src := Print(e)
		back, err := Parse("rt", src)
		if err != nil {
			t.Fatalf("iteration %d: reparse of %q failed: %v", i, src, err)
		}
		if !Equal(e, back) {
			t.Fatalf("iteration %d: round trip mismatch:\nsrc:  %s\nback: %s", i, src, Print(back))
		}
	}
}

func TestBinOpString(t *testing.T) {
	ops := map[BinOp]string{OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpEq: "==", OpLt: "<"}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("op %d prints %q, want %q", op, op.String(), want)
		}
	}
	if !strings.Contains(BinOp(99).String(), "99") {
		t.Error("unknown op string")
	}
}

func TestEqualNegativeCases(t *testing.T) {
	pairs := [][2]string{
		{"x", "y"},
		{"1", "2"},
		{"fn x => x", "fn y => y"},
		{"f x", "f y"},
		{"@const 1", "@nonzero 1"},
		{"x |[^const]", "x |[nonzero]"},
		{"1 + 2", "1 - 2"},
		{"let a = 1 in a ni", "let b = 1 in b ni"},
		{"ref 1", "!x"},
		{"()", "0"},
	}
	for _, p := range pairs {
		if Equal(MustParse(p[0]), MustParse(p[1])) {
			t.Errorf("Equal(%q, %q) = true", p[0], p[1])
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic")
		}
	}()
	MustParse("let")
}

func TestLetRecParsing(t *testing.T) {
	e := MustParse("letrec f = fn n => if n then n * f (n - 1) else 1 fi in f 5 ni")
	lr, ok := e.(*LetRec)
	if !ok {
		t.Fatalf("got %T", e)
	}
	if lr.Name != "f" {
		t.Errorf("name = %q", lr.Name)
	}
	if _, ok := lr.Init.(*Lam); !ok {
		t.Errorf("init is %T", lr.Init)
	}
	// Round trip.
	back := MustParse(Print(e))
	if !Equal(e, back) {
		t.Errorf("letrec round trip: %s", Print(back))
	}
	// Strip preserves letrec.
	if _, ok := Strip(e).(*LetRec); !ok {
		t.Error("Strip lost letrec")
	}
	// letrec is not a value.
	if IsValue(e) {
		t.Error("letrec is a value")
	}
}

func TestSubst(t *testing.T) {
	repl := MustParse("42")
	cases := []struct {
		src, want string
	}{
		{"x", "42"},
		{"y", "y"},
		{"x + x", "42 + 42"},
		{"fn x => x", "fn x => x"}, // shadowed by the binder
		{"fn y => x", "fn y => 42"},
		{"let x = x in x ni", "let x = 42 in x ni"}, // init is outside the scope
		{"let y = x in x ni", "let y = 42 in 42 ni"},
		{"letrec x = fn z => x in x ni", "letrec x = fn z => x in x ni"}, // fully shadowed
		{"@const x |[^const]", "@const (42) |[^const]"},
		{"ref x := !x", "ref 42 := !42"},
		{"if x then x else 1 fi", "if 42 then 42 else 1 fi"},
	}
	for _, c := range cases {
		got := Subst("x", repl, MustParse(c.src))
		want := MustParse(c.want)
		if !Equal(got, want) {
			t.Errorf("Subst(%q) = %s, want %s", c.src, Print(got), c.want)
		}
	}
}
