package cfront

import (
	"strings"
	"testing"
)

// TestWalkExprs pins the walk's order (source preorder), that a
// declaration contributes only its initializers, and that a false
// return skips the operands.
func TestWalkExprs(t *testing.T) {
	f := parse(t, `int g(int); int h(int *);
int f(int a, int b) {
	int t = g(a), u;
	if (a) return h(&b) + sizeof(b + t);
	for (u = 0; u < b; u++) { t = a ? b : t; }
	return t;
}`)
	fd := f.Decls[len(f.Decls)-1].(*FuncDecl)
	var names []string
	WalkExprs(fd.Body, func(e Expr) bool {
		if id, ok := e.(*Ident); ok {
			names = append(names, id.Name)
		}
		_, sizeof := e.(*SizeofExpr)
		return !sizeof
	})
	if got, want := strings.Join(names, " "), "g a a h b u u b u t a b t t"; got != want {
		t.Errorf("identifiers visited: %q; want %q", got, want)
	}
}
