package infer

import (
	"repro/internal/constraint"
	"repro/internal/qual"
)

// newReference returns a checker whose polymorphic schemes keep the
// whole constraint fragment of their value, quantified over every
// variable created during its inference that is not free in the
// environment (generic.local), and replayed in full at each
// instantiation: generalization before Section 6's projection. It is
// the test-only reference that projected schemes are checked against,
// verdict by verdict.
func newReference(set *qual.Set, rules Rules) *Checker {
	c := New(set, rules)
	c.generalize = func(g *generic) {
		startVar, endVar := g.vars[0], g.vars[1]
		cons := c.Sys.Slice(g.cons[0], g.cons[1])

		qvars := make([]constraint.Var, 0, endVar-startVar)
		for i := startVar; i < endVar; i++ {
			if g.local(constraint.Var(i)) {
				qvars = append(qvars, constraint.Var(i))
			}
		}
		g.qvars, g.proj = qvars, &constraint.Projection{Cons: cons}
	}
	return c
}
