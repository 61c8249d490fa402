package analysis

import (
	"fmt"

	"repro/internal/constraint"
	"repro/internal/qual"
)

// The uniqueness/borrowed analysis: unique ⊑ shared, after Giannini,
// Servetto and Zucca, "Flexible recovery of uniqueness and
// immutability". unique is the bottom of its component (a negative
// qualifier, like untainted): a unique reference may be used where a
// shared one is expected, never the other way around. Mutation is the
// capability uniqueness protects — the Write hook demands every
// written-through reference (and its guards) still be unique, so a
// value that escaped into shared state and is then mutated is flagged
// as an aliased mutation with a flow trace through the escape site.
//
// Call boundaries are where uniqueness is lost and recovered:
//
//   - The conservative escape rule (LibRef) assumes an un-preluded
//     library callee retains an alias of every reference it receives,
//     seeding shared. A C parameter declared const is exempt — a
//     read-only borrow cannot retain a mutable alias.
//   - A prelude entry overrides that per position: "aliased" keeps the
//     escape, "owned" demands a unique value be handed over, and
//     "borrowed" (the Borrow kind) is the recovery rule — the callee
//     only uses the value for the duration of the call, so the caller
//     keeps its uniqueness.
func init() {
	Register(&Analysis{
		Name:         "unique",
		Qual:         qual.Qualifier{Name: "unique", Sign: qual.Negative, NegName: "shared"},
		Doc:          "uniqueness: aliased values must not be mutated or consumed as unique",
		WantsPrelude: true,
		Annotations: map[string]Annotation{
			"fresh":    {Kind: Seed, Present: true, Doc: "the position produces a freshly allocated, unaliased value"},
			"aliased":  {Kind: Seed, Present: false, Doc: "the callee retains an alias; the value is shared from here on"},
			"owned":    {Kind: Sink, Present: true, Doc: "the callee consumes the value; only unique values may flow here"},
			"borrowed": {Kind: Borrow, Doc: "the callee uses the value only for the call (recovery: no escape)"},
		},
		Hooks: Hooks{
			Write: func(sys *constraint.System, b *Binding, target constraint.Term, guards []constraint.Term, why constraint.Reason) {
				// Only unique state is mutable: a write through a
				// reference (or under a guarding qualifier) that may be
				// shared is an aliased mutation.
				bound := constraint.C(b.Present | ^b.Mask)
				sys.AddMasked(target, bound, b.Mask, why)
				for _, g := range guards {
					sys.AddMasked(g, bound, b.Mask, why)
				}
			},
			LibRef: func(sys *constraint.System, b *Binding, use LibUse, q constraint.Term) {
				if use.DeclaredConst {
					return // const parameter: a read-only borrow cannot escape
				}
				msg := fmt.Sprintf("library function %q may retain an alias of its parameter", use.Fn)
				if use.Implicit {
					msg = fmt.Sprintf("argument to undeclared function %q may escape", use.Fn)
				}
				sys.AddMasked(constraint.C(b.Absent), q, b.Mask,
					constraint.Reason{Pos: use.Pos, Msg: msg})
			},
		},
	})
}
