package analysis

import (
	"fmt"

	"repro/internal/constraint"
	"repro/internal/qual"
)

// The first two built-in analyses (unique and fdstate live in their
// own files). const is the paper's Section 4 experiment; taint is the
// second instance proving the framework claim: same engine, different
// lattice orientation, seeds and sinks supplied by a prelude file
// instead of source syntax.
func init() {
	Register(&Analysis{
		Name: "const",
		Qual: qual.Qualifier{Name: "const", Sign: qual.Positive},
		Doc:  "const inference: find references that are never written through",
		Annotations: map[string]Annotation{
			"const": {Kind: Seed, Present: true, Doc: "the function does not write through this reference"},
		},
		Hooks: Hooks{
			DeclQual: func(sys *constraint.System, b *Binding, q constraint.Term, declaredConst bool, constPos constraint.Pos) {
				if !declaredConst {
					return
				}
				sys.AddMasked(constraint.C(b.Present), q, b.Mask,
					constraint.Reason{Pos: constPos, Msg: "declared const"})
			},
			Write: func(sys *constraint.System, b *Binding, target constraint.Term, guards []constraint.Term, why constraint.Reason) {
				// Assign': a written-through reference, and every qualifier
				// guarding access to it, cannot be const.
				bound := constraint.C(b.Absent | ^b.Mask)
				sys.AddMasked(target, bound, b.Mask, why)
				for _, g := range guards {
					sys.AddMasked(g, bound, b.Mask, why)
				}
			},
			LibRef: func(sys *constraint.System, b *Binding, use LibUse, q constraint.Term) {
				if use.DeclaredConst {
					return
				}
				msg := fmt.Sprintf("library function %q may write through its parameter", use.Fn)
				if use.Implicit {
					msg = fmt.Sprintf("argument to undeclared function %q", use.Fn)
				}
				sys.AddMasked(q, constraint.C(b.Absent|^b.Mask), b.Mask,
					constraint.Reason{Pos: use.Pos, Msg: msg})
			},
		},
	})

	Register(&Analysis{
		Name:         "taint",
		Qual:         qual.Qualifier{Name: "untainted", Sign: qual.Negative, NegName: "tainted"},
		Doc:          "taint tracking: untrusted library data must not reach trusted sinks",
		WantsPrelude: true,
		Annotations: map[string]Annotation{
			"tainted":   {Kind: Seed, Present: false, Doc: "the position produces untrusted data"},
			"untainted": {Kind: Sink, Present: true, Doc: "the position accepts only trusted data"},
		},
		// No per-construct hooks: taint has no source-level qualifier
		// syntax and no conservative library rule; everything flows from
		// the prelude's seeds into the prelude's sinks through the
		// ordinary subtyping constraints.
	})
}
