// Package core is the front door of the qualifier framework of Foster,
// Fähndrich and Aiken, "A Theory of Type Qualifiers" (PLDI 1999). A Spec
// bundles a qualifier set (the user-supplied q1…qn with their subtyping
// orientation) with the per-qualifier inference rules; a Spec yields
// checkers for the example language and gives programmatic access to the
// lattice.
//
// The heavy lifting lives in the subpackages: qual (lattices), constraint
// (the atomic-subtyping solver), qtype (qualified types), lambda (the
// example language), infer (qualified type inference and polymorphism),
// eval (the Figure-5 operational semantics), cfront/constinfer (the
// Section-4 const inference for C).
package core

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/infer"
	"repro/internal/lambda"
	"repro/internal/qual"
)

// Spec is a complete qualifier-system definition: what the qualifiers
// are, how they order, and the extra inference rules that give them
// meaning.
type Spec struct {
	// Name identifies the spec in output.
	Name string
	// Doc is a one-line description.
	Doc string
	// Set is the qualifier lattice.
	Set *qual.Set
	// Rules are the per-qualifier inference hooks.
	Rules infer.Rules
}

// NewChecker builds a fresh polymorphic checker for the spec.
func (s *Spec) NewChecker() *infer.Checker {
	return infer.New(s.Set, s.Rules)
}

// NewMonoChecker builds a checker with qualifier polymorphism disabled,
// the C-type-system baseline of the paper's experiments.
func (s *Spec) NewMonoChecker() *infer.Checker {
	c := infer.New(s.Set, s.Rules)
	c.Monomorphic = true
	return c
}

// Check parses and checks src with a fresh polymorphic checker.
func (s *Spec) Check(file, src string) (*infer.Result, error) {
	return s.NewChecker().CheckSource(file, src)
}

// Run parses, compiles and evaluates src under the Figure-5 semantics.
func (s *Spec) Run(file, src string) (*eval.TQVal, error) {
	e, err := lambda.Parse(file, src)
	if err != nil {
		return nil, err
	}
	return eval.Run(s.Set, eval.LitQual(s.Rules.LitQual), e, 0)
}

// ConstSpec is the ANSI C const qualifier (paper Sections 1, 2.4, 4): a
// positive qualifier whose assignment rule forbids stores through const
// references.
func ConstSpec() *Spec {
	set := qual.MustSet(qual.Qualifier{Name: "const", Sign: qual.Positive})
	return &Spec{
		Name:  "const",
		Doc:   "ANSI C const: initialized but never updated",
		Set:   set,
		Rules: infer.ConstRules(set),
	}
}

// NonzeroSpec is the negative nonzero qualifier of Figure 2: zero
// literals lose it, divisors must have it.
func NonzeroSpec() *Spec {
	set := qual.MustSet(qual.Qualifier{Name: "nonzero", Sign: qual.Negative})
	return &Spec{
		Name:  "nonzero",
		Doc:   "integers known to be nonzero; divisors are checked",
		Set:   set,
		Rules: infer.NonzeroRules(set),
	}
}

// BindingTimeSpec is binding-time analysis with the positive qualifier
// dynamic (static is its absence), including the well-formedness rule
// that nothing dynamic appears inside a static value.
func BindingTimeSpec() *Spec {
	set := qual.MustSet(qual.Qualifier{Name: "dynamic", Sign: qual.Positive})
	return &Spec{
		Name:  "bindingtime",
		Doc:   "binding-time analysis: static vs dynamic",
		Set:   set,
		Rules: infer.BindingTimeRules(set),
	}
}

// TaintSpec is a secure-information-flow qualifier in the style of the
// systems the paper cites: tainted data must not reach untainted sinks.
func TaintSpec() *Spec {
	set := qual.MustSet(qual.Qualifier{Name: "tainted", Sign: qual.Positive})
	return &Spec{
		Name:  "taint",
		Doc:   "untrusted data must not reach trusted sinks",
		Set:   set,
		Rules: infer.TaintRules(set),
	}
}

// Figure2Spec combines const, dynamic and nonzero into the eight-point
// lattice drawn in Figure 2 of the paper, with all three rule sets
// active.
func Figure2Spec() *Spec {
	set := qual.MustSet(
		qual.Qualifier{Name: "const", Sign: qual.Positive},
		qual.Qualifier{Name: "dynamic", Sign: qual.Positive},
		qual.Qualifier{Name: "nonzero", Sign: qual.Negative},
	)
	return &Spec{
		Name: "figure2",
		Doc:  "the const × dynamic × nonzero lattice of Figure 2",
		Set:  set,
		Rules: infer.Merge(
			infer.ConstRules(set),
			infer.BindingTimeRules(set),
			infer.NonzeroRules(set),
		),
	}
}

// Specs returns all built-in specs, keyed by name.
func Specs() map[string]*Spec {
	out := map[string]*Spec{}
	for _, s := range []*Spec{ConstSpec(), NonzeroSpec(), BindingTimeSpec(), TaintSpec(), Figure2Spec()} {
		out[s.Name] = s
	}
	return out
}

// Lookup finds a built-in spec by name.
func Lookup(name string) (*Spec, error) {
	s, ok := Specs()[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown qualifier spec %q", name)
	}
	return s, nil
}

// Custom builds a Spec from raw qualifier definitions with no extra
// rules; the framework's generic behaviour (Figure 4) applies.
func Custom(name string, quals ...qual.Qualifier) (*Spec, error) {
	set, err := qual.NewSet(quals...)
	if err != nil {
		return nil, err
	}
	return &Spec{Name: name, Doc: "user-defined qualifier set", Set: set}, nil
}
