package constraint_test

import (
	"go/token"
	"testing"

	"repro/internal/cfront"
	"repro/internal/constraint"
	"repro/internal/lambda"
)

// TestPosString checks that a constraint.Pos renders exactly as the
// front-end position it was built from did, so provenance formatted on
// demand matches the strings once stored with every constraint. The C
// front end adds its unit's file name to an in-file line:col, the lambda
// front end copies its positions field by field, and the Go front end
// converts through TokenPos.
func TestPosString(t *testing.T) {
	fromC := func(file string, p cfront.Pos) constraint.Pos {
		return constraint.Pos{File: file, Line: p.Line, Col: p.Col}
	}
	fromLambda := func(p lambda.Pos) constraint.Pos {
		return constraint.Pos{File: p.File, Line: int32(p.Line), Col: int32(p.Col)}
	}
	cases := []struct {
		name string
		pos  constraint.Pos
		want string
	}{
		{"cfront with file", fromC("dir/a.c", cfront.Pos{Line: 12, Col: 5}), "dir/a.c:" + cfront.Pos{Line: 12, Col: 5}.String()},
		{"cfront without file", fromC("", cfront.Pos{Line: 3, Col: 14}), cfront.Pos{Line: 3, Col: 14}.String()},
		{"lambda with file", fromLambda(lambda.Pos{File: "e.q", Line: 1, Col: 9}), lambda.Pos{File: "e.q", Line: 1, Col: 9}.String()},
		{"lambda without file", fromLambda(lambda.Pos{Line: 2, Col: 1}), lambda.Pos{Line: 2, Col: 1}.String()},
		{"go/token", constraint.TokenPos(token.Position{Filename: "m.go", Line: 40, Column: 2}), token.Position{Filename: "m.go", Line: 40, Column: 2}.String()},
		{"go/token col 0", constraint.TokenPos(token.Position{Filename: "m.go", Line: 40}), token.Position{Filename: "m.go", Line: 40}.String()},
		{"go/token without filename", constraint.TokenPos(token.Position{Line: 7, Column: 3}), token.Position{Line: 7, Column: 3}.String()},
		{"go/token invalid", constraint.TokenPos(token.Position{}), token.Position{}.String()},
		{"go/token invalid with filename", constraint.TokenPos(token.Position{Filename: "m.go"}), token.Position{Filename: "m.go"}.String()},
	}
	for _, c := range cases {
		if got := c.pos.String(); got != c.want {
			t.Errorf("%s: %+v.String() = %q, want %q", c.name, c.pos, got, c.want)
		}
	}
	// Spot-check the renderings themselves, so a change on both sides
	// still shows.
	for _, c := range []struct{ got, want string }{
		{cases[1].want, "3:14"},
		{cases[5].want, "m.go:40"},
		{cases[7].want, "-"},
	} {
		if c.got != c.want {
			t.Errorf("front-end rendering %q, want %q", c.got, c.want)
		}
	}
	if got := (constraint.Pos{}).String(); got != "" {
		t.Errorf("zero Pos renders %q, want \"\" (no position)", got)
	}
}
