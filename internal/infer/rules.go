package infer

import (
	"repro/internal/constraint"
	"repro/internal/lambda"
	"repro/internal/qual"
)

// This file provides the rule sets for the qualifiers discussed in the
// paper: const (Section 2.4), nonzero (Figure 2 and the Section 2.4
// unsoundness example), and binding-time static/dynamic (Sections 1–2).
// Each is a worked instance of the framework's "qualifier designer
// restricts the choice points" mechanism.

// ConstRules returns the rules for the const qualifier, which must be
// registered as a positive qualifier named "const" in the set: the
// left-hand side of an assignment must not be const (the paper's Assign'
// rule).
func ConstRules(set *qual.Set) Rules {
	notConst := set.MustNot("const")
	return Rules{
		Assign: func(sys *constraint.System, refQ constraint.Term, pos lambda.Pos) {
			sys.Add(refQ, constraint.C(notConst),
				why(pos, "assignment target must not be const"))
		},
	}
}

// NonzeroRules returns the rules for the negative qualifier "nonzero":
// the literal 0 loses the qualifier, every other literal keeps it,
// divisors must be nonzero, and arithmetic results are conservatively not
// known to be nonzero.
func NonzeroRules(set *qual.Set) Rules {
	bit := set.MustMask("nonzero")
	zeroElem := mustWithout(set, set.Bottom(), "nonzero")
	requireNZ := set.MustRequire("nonzero")
	return Rules{
		LitQual: func(s *qual.Set, n int64) qual.Elem {
			if n == 0 {
				return zeroElem
			}
			return s.Bottom() // nonzero present at ⊥
		},
		Bin: func(sys *constraint.System, op lambda.BinOp, lq, rq, resQ constraint.Term, pos lambda.Pos) {
			if op == lambda.OpDiv {
				sys.Add(rq, constraint.C(requireNZ),
					why(pos, "divisor must be nonzero"))
			}
			// Results of arithmetic are not known to be nonzero.
			sys.AddMasked(constraint.C(bit), resQ, bit,
				why(pos, "arithmetic result not known nonzero"))
		},
	}
}

// BindingTimeRules returns the rules for binding-time analysis with the
// positive qualifier "dynamic" (static is its absence, as in the paper):
// nothing dynamic may appear inside a static value (the well-formedness
// condition of Section 2), applying a dynamic function gives a dynamic
// result, and branching on a dynamic guard gives a dynamic result.
func BindingTimeRules(set *qual.Set) Rules {
	dyn := set.MustMask("dynamic")
	return Rules{
		WellFormed: func(sys *constraint.System, parent, child constraint.Term) {
			sys.AddMasked(child, parent, dyn,
				constraint.Reason{Msg: "nothing dynamic inside a static value"})
		},
		App: func(sys *constraint.System, funQ, resQ constraint.Term, pos lambda.Pos) {
			sys.AddMasked(funQ, resQ, dyn,
				why(pos, "applying a dynamic function yields a dynamic result"))
		},
		If: func(sys *constraint.System, condQ, resQ constraint.Term, pos lambda.Pos) {
			sys.AddMasked(condQ, resQ, dyn,
				why(pos, "branching on a dynamic guard yields a dynamic result"))
		},
		Bin: func(sys *constraint.System, op lambda.BinOp, lq, rq, resQ constraint.Term, pos lambda.Pos) {
			r := why(pos, "arithmetic on dynamic operands yields a dynamic result")
			sys.AddMasked(lq, resQ, dyn, r)
			sys.AddMasked(rq, resQ, dyn, r)
		},
		Deref: func(sys *constraint.System, refQ, resQ constraint.Term, pos lambda.Pos) {
			sys.AddMasked(refQ, resQ, dyn,
				why(pos, "reading a dynamic reference yields a dynamic result"))
		},
	}
}

// TaintRules returns the rules for a secure-information-flow pair in the
// style the paper cites ([VS97]): a positive qualifier "tainted" marks
// untrusted data. Sources annotate, sinks assert ^tainted; subsumption
// does the propagation, and arithmetic propagates taint from operands to
// results.
func TaintRules(set *qual.Set) Rules {
	taint := set.MustMask("tainted")
	return Rules{
		Bin: func(sys *constraint.System, op lambda.BinOp, lq, rq, resQ constraint.Term, pos lambda.Pos) {
			r := why(pos, "taint propagates through arithmetic")
			sys.AddMasked(lq, resQ, taint, r)
			sys.AddMasked(rq, resQ, taint, r)
		},
	}
}

// Merge combines rule sets; each hook runs every non-nil component in
// order, and LitQual joins the component elements. It lets several
// qualifier analyses share one checker, as in the paper's Figure 2
// lattice over {const, dynamic, nonzero}.
func Merge(rules ...Rules) Rules {
	var out Rules
	for _, r := range rules {
		r := r
		if r.LitQual != nil {
			prev := out.LitQual
			out.LitQual = func(set *qual.Set, n int64) qual.Elem {
				e := r.LitQual(set, n)
				if prev != nil {
					// Each analysis raises only its own components above
					// ⊥ (the all-zero normalized element), so combining
					// is the lattice join.
					e = qual.Join(e, prev(set, n))
				}
				return e
			}
		}
		if r.Assign != nil {
			prev := out.Assign
			out.Assign = func(sys *constraint.System, refQ constraint.Term, pos lambda.Pos) {
				if prev != nil {
					prev(sys, refQ, pos)
				}
				r.Assign(sys, refQ, pos)
			}
		}
		if r.Deref != nil {
			prev := out.Deref
			out.Deref = func(sys *constraint.System, refQ, resQ constraint.Term, pos lambda.Pos) {
				if prev != nil {
					prev(sys, refQ, resQ, pos)
				}
				r.Deref(sys, refQ, resQ, pos)
			}
		}
		if r.App != nil {
			prev := out.App
			out.App = func(sys *constraint.System, funQ, resQ constraint.Term, pos lambda.Pos) {
				if prev != nil {
					prev(sys, funQ, resQ, pos)
				}
				r.App(sys, funQ, resQ, pos)
			}
		}
		if r.If != nil {
			prev := out.If
			out.If = func(sys *constraint.System, condQ, resQ constraint.Term, pos lambda.Pos) {
				if prev != nil {
					prev(sys, condQ, resQ, pos)
				}
				r.If(sys, condQ, resQ, pos)
			}
		}
		if r.Bin != nil {
			prev := out.Bin
			out.Bin = func(sys *constraint.System, op lambda.BinOp, lq, rq, resQ constraint.Term, pos lambda.Pos) {
				if prev != nil {
					prev(sys, op, lq, rq, resQ, pos)
				}
				r.Bin(sys, op, lq, rq, resQ, pos)
			}
		}
		if r.WellFormed != nil {
			prev := out.WellFormed
			out.WellFormed = func(sys *constraint.System, parent, child constraint.Term) {
				if prev != nil {
					prev(sys, parent, child)
				}
				r.WellFormed(sys, parent, child)
			}
		}
	}
	return out
}

func mustWithout(set *qual.Set, e qual.Elem, name string) qual.Elem {
	out, err := set.Without(e, name)
	if err != nil {
		panic(err)
	}
	return out
}
