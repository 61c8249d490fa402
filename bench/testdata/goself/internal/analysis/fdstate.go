package analysis

import (
	"repro/internal/constraint"
	"repro/internal/qual"
)

// The fd-state analysis: an open/closed resource checker in the style
// of the paper's Section 7 outlook (qualifiers as a poor man's typestate),
// seeded entirely from preludes. closed is a positive qualifier —
// open ⊑ closed — so a handle is "may-closed" as soon as any path
// closes it:
//
//   - "closed" (seed) marks the released position: close(2) for C,
//     (*os.File).Close via a receiver annotation for Go.
//   - "open" (sink) marks positions that demand a still-open handle:
//     read(2)/write(2), (*os.File).Read. A may-closed descriptor
//     reaching one is a use-after-close, with the flow trace running
//     back through the close site.
//   - The Return hook bounds every value returned from a defined
//     function away from closed: a may-closed handle escaping to the
//     caller is flagged at the return site (the caller can no longer
//     use it, and double-close lurks behind it).
//
// The checker is flow-insensitive, like every qualifier analysis here:
// "closed anywhere" means "may be closed everywhere that value flows".
// That is the monotone approximation the product lattice supports in a
// single pass; path-sensitive liveness is flow-sensitive qualifiers
// (the PLDI 2002 follow-up), out of scope for this engine.
func init() {
	Register(&Analysis{
		Name:         "fdstate",
		Qual:         qual.Qualifier{Name: "closed", Sign: qual.Positive, NegName: "open"},
		Doc:          "fd-state: closed file descriptors must not be read, written, or returned",
		WantsPrelude: true,
		Annotations: map[string]Annotation{
			"fresh":  {Kind: Seed, Present: false, Doc: "the position produces a newly opened, live handle"},
			"closed": {Kind: Seed, Present: true, Doc: "the callee releases the handle; it is may-closed from here on"},
			"open":   {Kind: Sink, Present: false, Doc: "the callee requires a handle that is still open"},
		},
		Hooks: Hooks{
			Return: func(sys *constraint.System, b *Binding, ret constraint.Term, why constraint.Reason) {
				// Leak-on-return: a may-closed handle must not escape to
				// the caller as if it were usable.
				sys.AddMasked(ret, constraint.C(b.Absent|^b.Mask), b.Mask, why)
			},
		},
	})
}
