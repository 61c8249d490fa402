// Package infer implements qualified type inference for the example
// language, following Sections 2.3, 3.1 and 3.2 of "A Theory of Type
// Qualifiers" (PLDI 1999).
//
// The checker is the image of the paper's construction: each standard
// inference rule is rewritten with the spread operator so that every type
// carries qualifier variables, a subsumption step inserts subtyping
// constraints at every flow point, and the rules for qualifier
// annotations and assertions manipulate only the top-level qualifier.
// Everything specific to a particular qualifier — const's non-const
// assignment targets, nonzero divisors, binding-time well-formedness — is
// supplied through the Rules hooks, mirroring the paper's observation
// that the qualifier designer may restrict the qualifiers the constructed
// rules would otherwise leave arbitrary (Section 2.4).
//
// Polymorphism is let-style and ranges over qualifiers only (Section
// 3.2): let-bound syntactic values are generalized into constrained type
// schemes ∀κ⃗. ρ \ C. As in the C engine, C is the fragment projected onto
// the scheme's interface by constraint.System.Generalize (Section 6), and
// each use adds a renamed instance of the projection with fresh
// qualifier variables.
package infer

import (
	"fmt"
	"slices"

	"repro/internal/constraint"
	"repro/internal/lambda"
	"repro/internal/qtype"
	"repro/internal/qual"
)

// The type constructors of the example language: Σ = {int, unit, →, ref}.
var (
	// ConInt is the integer type constructor.
	ConInt = &qtype.Constructor{Name: "int"}
	// ConUnit is the unit type constructor.
	ConUnit = &qtype.Constructor{Name: "unit"}
	// ConFun is the function type constructor; its domain is
	// contravariant and its range covariant (rule SubFun).
	ConFun = &qtype.Constructor{Name: "→", Variance: []qtype.Variance{qtype.Contravariant, qtype.Covariant}, Infix: true}
	// ConRef is the updateable-reference constructor; its contents are
	// invariant (rule SubRef), which repairs the aliasing unsoundness
	// demonstrated in Section 2.4.
	ConRef = &qtype.Constructor{Name: "ref", Variance: []qtype.Variance{qtype.Invariant}}
)

// Rules collects the per-qualifier hooks. Every field may be nil, giving
// the pure framework behaviour of Figure 4. Hooks add constraints through
// the supplied system; they must not solve it.
type Rules struct {
	// LitQual chooses the qualifier element for an integer literal.
	// Default: ⊥, the paper's (Int) rule. A nonzero analysis maps 0 to
	// the element with nonzero absent.
	LitQual func(set *qual.Set, n int64) qual.Elem
	// Assign is invoked at e1 := e2 with the qualifier of the reference
	// being stored through; the const rule adds the bound refQ ⊑ ¬const
	// (the paper's Assign' rule).
	Assign func(sys *constraint.System, refQ constraint.Term, pos lambda.Pos)
	// Deref is invoked at !e with the reference's qualifier and the
	// qualifier of the resulting contents.
	Deref func(sys *constraint.System, refQ, resQ constraint.Term, pos lambda.Pos)
	// App is invoked at e1 e2 with the function's top-level qualifier and
	// the result's qualifier; binding-time analysis makes the result at
	// least as dynamic as the function.
	App func(sys *constraint.System, funQ, resQ constraint.Term, pos lambda.Pos)
	// If is invoked with the guard's and the result's qualifiers.
	If func(sys *constraint.System, condQ, resQ constraint.Term, pos lambda.Pos)
	// Bin is invoked for arithmetic with the operand and result
	// qualifiers; a nonzero analysis bounds divisors and taints results.
	Bin func(sys *constraint.System, op lambda.BinOp, lq, rq, resQ constraint.Term, pos lambda.Pos)
	// WellFormed is invoked for every parent/child qualifier pair of every
	// constructed type; binding-time analysis adds child ⊑ parent on the
	// dynamic component.
	WellFormed func(sys *constraint.System, parent, child constraint.Term)
}

// Scheme is a constrained polymorphic type ∀κ⃗. ρ \ C, or a monomorphic
// binding.
type Scheme struct {
	// Body is the scheme's qualified type.
	Body *qtype.QType
	// gen is nil for a monomorphic binding.
	gen *generic
}

// generic is a generalized value's fragment: iface, the body's qualifier
// variables at generalization, and the half-open variable and constraint
// ranges of its inference. The first instantiation projects it into the
// quantified variables and C; many let-bound values are never used.
type generic struct {
	iface      []constraint.Var
	vars, cons [2]int
	// escaped lists, sorted, the variables of the vars range that are
	// free in the environment after the value's inference; they are
	// never quantified.
	escaped []constraint.Var
	qvars   []constraint.Var
	proj    *constraint.Projection
}

// Mono wraps a qualified type as a monomorphic scheme.
func Mono(q *qtype.QType) *Scheme { return &Scheme{Body: q} }

// Env is a persistent type environment mapping program variables to
// schemes.
type Env struct {
	name   string
	scheme *Scheme
	next   *Env
}

// Bind extends the environment; the receiver may be nil (the empty
// environment).
func (e *Env) Bind(name string, s *Scheme) *Env {
	return &Env{name: name, scheme: s, next: e}
}

// Lookup finds the innermost binding of name.
func (e *Env) Lookup(name string) (*Scheme, bool) {
	for ; e != nil; e = e.next {
		if e.name == name {
			return e.scheme, true
		}
	}
	return nil, false
}

// Checker performs qualified type inference over one constraint system.
type Checker struct {
	Set   *qual.Set
	Rules Rules
	Sys   *constraint.System
	B     *qtype.Builder
	// Monomorphic disables qualifier polymorphism: let-bound values get
	// plain monomorphic types, as in the C type system. The paper's
	// experiments compare exactly these two modes.
	Monomorphic bool

	// generalize, when set, replaces System.Generalize at a scheme's
	// first instantiation. Tests set it to the full-fragment replay
	// (newReference) that projected schemes are checked against.
	generalize func(g *generic)
	// free is generalizeFrom's buffer for the environment's variables.
	free []constraint.Var
}

// New creates a checker for the qualifier set with the given rules.
func New(set *qual.Set, rules Rules) *Checker {
	sys := constraint.NewSystem(set)
	b := qtype.NewBuilder(sys)
	c := &Checker{Set: set, Rules: rules, Sys: sys, B: b}
	if rules.WellFormed != nil {
		b.OnNode = func(parent, child constraint.Term) {
			rules.WellFormed(sys, parent, child)
		}
	}
	return c
}

// QualError reports a qualifier-related error that is not a lattice
// conflict, such as an unknown qualifier name in an annotation.
type QualError struct {
	Pos lambda.Pos
	Msg string
}

func (e *QualError) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
	}
	return e.Msg
}

func (c *Checker) intType(q constraint.Term) *qtype.QType {
	return &qtype.QType{Q: q, T: &qtype.Type{Con: ConInt}}
}

func why(pos lambda.Pos, msg string) constraint.Reason {
	return constraint.Reason{Pos: constraint.Pos{File: pos.File, Line: int32(pos.Line), Col: int32(pos.Col)}, Msg: msg}
}

// Infer computes the qualified type of e under env, adding constraints to
// the checker's system. Standard type errors and qualifier-syntax errors
// are returned immediately; lattice satisfiability is checked by Solve.
func (c *Checker) Infer(env *Env, e lambda.Expr) (*qtype.QType, error) {
	switch e := e.(type) {
	case *lambda.Var:
		s, ok := env.Lookup(e.Name)
		if !ok {
			return nil, &QualError{Pos: e.P, Msg: fmt.Sprintf("unbound variable %q", e.Name)}
		}
		return c.Instantiate(s), nil

	case *lambda.IntLit:
		// The checking rule (Int) gives n : ⊥ int; the constructed
		// inference rules spread a fresh variable instead, with the
		// literal's element as a lower bound — same least solution, but
		// subsumption and well-formedness rules can raise it.
		q := c.Set.Bottom()
		if c.Rules.LitQual != nil {
			q = c.Rules.LitQual(c.Set, e.Val)
		}
		out := c.intType(c.B.FreshQ())
		if q != c.Set.Bottom() {
			c.Sys.Add(constraint.C(q), out.Q, why(e.P, "integer literal"))
		}
		return out, nil

	case *lambda.UnitLit:
		return c.B.Apply(ConUnit), nil

	case *lambda.Lam:
		param := c.B.Qual(c.B.FreshTVar())
		body, err := c.Infer(env.Bind(e.Param, Mono(param)), e.Body)
		if err != nil {
			return nil, err
		}
		return c.B.Apply(ConFun, param, body), nil

	case *lambda.App:
		fn, err := c.Infer(env, e.Fn)
		if err != nil {
			return nil, err
		}
		arg, err := c.Infer(env, e.Arg)
		if err != nil {
			return nil, err
		}
		dom := c.B.Qual(c.B.FreshTVar())
		res := c.B.Qual(c.B.FreshTVar())
		ft := c.B.Apply(ConFun, dom, res)
		if err := c.B.Equal(fn, ft, why(e.P, "application: function type")); err != nil {
			return nil, err
		}
		if err := c.B.Subtype(arg, dom, why(e.Arg.Pos(), "application: argument")); err != nil {
			return nil, err
		}
		if c.Rules.App != nil {
			c.Rules.App(c.Sys, ft.Q, res.Q, e.P)
		}
		return res, nil

	case *lambda.If:
		cond, err := c.Infer(env, e.Cond)
		if err != nil {
			return nil, err
		}
		guard := c.intType(c.B.FreshQ())
		if err := c.B.Equal(cond, guard, why(e.Cond.Pos(), "if guard (an integer)")); err != nil {
			return nil, err
		}
		thn, err := c.Infer(env, e.Then)
		if err != nil {
			return nil, err
		}
		els, err := c.Infer(env, e.Else)
		if err != nil {
			return nil, err
		}
		res := c.B.Qual(c.B.FreshTVar())
		if err := c.B.Subtype(thn, res, why(e.Then.Pos(), "if: then branch")); err != nil {
			return nil, err
		}
		if err := c.B.Subtype(els, res, why(e.Else.Pos(), "if: else branch")); err != nil {
			return nil, err
		}
		if c.Rules.If != nil {
			c.Rules.If(c.Sys, guard.Q, res.Q, e.P)
		}
		return res, nil

	case *lambda.Let:
		var scheme *Scheme
		if lambda.IsValue(e.Init) && !c.Monomorphic {
			s, err := c.Generalize(env, e.Init)
			if err != nil {
				return nil, err
			}
			scheme = s
		} else {
			init, err := c.Infer(env, e.Init)
			if err != nil {
				return nil, err
			}
			scheme = Mono(init)
		}
		return c.Infer(env.Bind(e.Name, scheme), e.Body)

	case *lambda.LetRec:
		scheme, err := c.generalizeRec(env, e)
		if err != nil {
			return nil, err
		}
		return c.Infer(env.Bind(e.Name, scheme), e.Body)

	case *lambda.Ref:
		inner, err := c.Infer(env, e.E)
		if err != nil {
			return nil, err
		}
		return c.B.Apply(ConRef, inner), nil

	case *lambda.Deref:
		ref, err := c.Infer(env, e.E)
		if err != nil {
			return nil, err
		}
		inner := c.B.Qual(c.B.FreshTVar())
		rt := c.B.Apply(ConRef, inner)
		if err := c.B.Equal(ref, rt, why(e.P, "dereference")); err != nil {
			return nil, err
		}
		if c.Rules.Deref != nil {
			c.Rules.Deref(c.Sys, rt.Q, inner.Q, e.P)
		}
		return inner, nil

	case *lambda.Assign:
		lhs, err := c.Infer(env, e.Lhs)
		if err != nil {
			return nil, err
		}
		rhs, err := c.Infer(env, e.Rhs)
		if err != nil {
			return nil, err
		}
		contents := c.B.Qual(c.B.FreshTVar())
		rt := c.B.Apply(ConRef, contents)
		if err := c.B.Equal(lhs, rt, why(e.P, "assignment")); err != nil {
			return nil, err
		}
		if err := c.B.Subtype(rhs, contents, why(e.Rhs.Pos(), "assigned value")); err != nil {
			return nil, err
		}
		if c.Rules.Assign != nil {
			c.Rules.Assign(c.Sys, rt.Q, e.P)
		}
		return c.B.Apply(ConUnit), nil

	case *lambda.Annot:
		return c.inferAnnot(env, e)

	case *lambda.Assert:
		return c.inferAssert(env, e)

	case *lambda.Bin:
		l, err := c.Infer(env, e.L)
		if err != nil {
			return nil, err
		}
		r, err := c.Infer(env, e.R)
		if err != nil {
			return nil, err
		}
		lt := c.intType(c.B.FreshQ())
		rt := c.intType(c.B.FreshQ())
		if err := c.B.Equal(l, lt, why(e.L.Pos(), "left operand of "+e.Op.String())); err != nil {
			return nil, err
		}
		if err := c.B.Equal(r, rt, why(e.R.Pos(), "right operand of "+e.Op.String())); err != nil {
			return nil, err
		}
		res := c.intType(c.B.FreshQ())
		if c.Rules.Bin != nil {
			c.Rules.Bin(c.Sys, e.Op, lt.Q, rt.Q, res.Q, e.P)
		}
		return res, nil

	default:
		return nil, fmt.Errorf("infer: unknown expression %T", e)
	}
}

// inferAnnot implements the (Annot) rule generalized to per-qualifier
// annotations. The paper's "l e" carries a whole lattice element l, checks
// Q ⊑ l and retypes e at l; with named qualifiers the annotation @q
// strengthens exactly the q component: for a positive qualifier the
// result's qualifier is raised to include q, for a negative qualifier the
// result is lowered to include q (an unchecked assumption, like the
// paper's sorted example). All other components flow through unchanged.
func (c *Checker) inferAnnot(env *Env, e *lambda.Annot) (*qtype.QType, error) {
	inner, err := c.Infer(env, e.E)
	if err != nil {
		return nil, err
	}
	idx, ok := c.Set.Lookup(e.Qual)
	if !ok {
		return nil, &QualError{Pos: e.P, Msg: fmt.Sprintf("unknown qualifier %q in annotation", e.Qual)}
	}
	def := c.Set.Qualifier(idx)
	bit, err := c.Set.Mask(e.Qual)
	if err != nil {
		return nil, &QualError{Pos: e.P, Msg: err.Error()}
	}
	out := &qtype.QType{Q: c.B.FreshQ(), T: inner.T}
	r := why(e.P, "annotation @"+e.Qual)
	if def.Sign == qual.Positive {
		// Everything flows up; additionally q is present.
		c.Sys.Add(inner.Q, out.Q, r)
		c.Sys.AddMasked(constraint.C(bit), out.Q, bit, r)
	} else {
		// Other components flow; the q component is assumed present
		// (which for a negative qualifier is the bottom of its
		// two-point lattice, so it is imposed as an upper bound).
		c.Sys.AddMasked(inner.Q, out.Q, c.Set.FullMask()&^bit, r)
		c.Sys.AddMasked(out.Q, constraint.C(0), bit, r)
	}
	return out, nil
}

// inferAssert implements the (Assert) rule: e|l checks Q ⊑ l and leaves
// the type unchanged. Forbid entries demand absence (positive qualifiers,
// bound ¬q); Require entries demand presence (negative qualifiers, bound
// Require(q)).
func (c *Checker) inferAssert(env *Env, e *lambda.Assert) (*qtype.QType, error) {
	inner, err := c.Infer(env, e.E)
	if err != nil {
		return nil, err
	}
	bound := c.Set.Top()
	var names []string
	for _, q := range e.Forbid {
		idx, ok := c.Set.Lookup(q)
		if !ok {
			return nil, &QualError{Pos: e.P, Msg: fmt.Sprintf("unknown qualifier %q in assertion", q)}
		}
		if c.Set.Qualifier(idx).Sign != qual.Positive {
			return nil, &QualError{Pos: e.P, Msg: fmt.Sprintf("assertion ^%s: absence of a negative qualifier is not an upper bound; assert presence instead", q)}
		}
		b, err := c.Set.Without(bound, q)
		if err != nil {
			return nil, &QualError{Pos: e.P, Msg: err.Error()}
		}
		bound = b
		names = append(names, "^"+q)
	}
	for _, q := range e.Require {
		idx, ok := c.Set.Lookup(q)
		if !ok {
			return nil, &QualError{Pos: e.P, Msg: fmt.Sprintf("unknown qualifier %q in assertion", q)}
		}
		if c.Set.Qualifier(idx).Sign != qual.Negative {
			return nil, &QualError{Pos: e.P, Msg: fmt.Sprintf("assertion %s: presence of a positive qualifier is not an upper bound; annotate instead", q)}
		}
		b, err := c.Set.With(bound, q)
		if err != nil {
			return nil, &QualError{Pos: e.P, Msg: err.Error()}
		}
		bound = b
		names = append(names, q)
	}
	c.Sys.Add(inner.Q, constraint.C(bound), why(e.P, fmt.Sprintf("assertion |%v", names)))
	return inner, nil
}

// Generalize infers the type of a syntactic value and abstracts over the
// qualifier variables created during its inference that are not free in
// the environment, capturing the constraint fragment generated alongside
// — the paper's (Letv) rule. The fragment also stays in the global
// system, implementing the existential quantification ∃κ⃗.C1 that checks
// the purely local constraints once.
func (c *Checker) Generalize(env *Env, v lambda.Expr) (*Scheme, error) {
	startVar := c.Sys.NumVars()
	startCon := c.Sys.NumConstraints()
	body, err := c.Infer(env, v)
	if err != nil {
		return nil, err
	}
	return c.generalizeFrom(env, startVar, startCon, body), nil
}

// generalizeRec infers a recursive binding: the name is visible inside
// its own initializer at a monomorphic type (the (Letv) rule extended to
// recursion), and the result is generalized afterwards. In Monomorphic
// mode the recursive type itself is the binding.
func (c *Checker) generalizeRec(env *Env, e *lambda.LetRec) (*Scheme, error) {
	if !lambda.IsValue(e.Init) {
		return nil, &QualError{Pos: e.P, Msg: "letrec initializer must be a syntactic value"}
	}
	startVar := c.Sys.NumVars()
	startCon := c.Sys.NumConstraints()
	self := c.B.Qual(c.B.FreshTVar())
	init, err := c.Infer(env.Bind(e.Name, Mono(self)), e.Init)
	if err != nil {
		return nil, err
	}
	if err := c.B.Equal(init, self, why(e.P, "recursive binding of "+e.Name)); err != nil {
		return nil, err
	}
	if c.Monomorphic {
		return Mono(init), nil
	}
	return c.generalizeFrom(env, startVar, startCon, init), nil
}

// generalizeFrom builds a scheme over the qualifier variables created
// since the snapshot and the constraints generated alongside. Body's
// variables are read now, as its type variables may later resolve to
// types the fragment never saw. So are the variables of the range that
// are free in env: the value can bind an enclosing λ-parameter's type
// variable to a type that holds them, and the (Let) rule generalizes only
// variables not free in Γ (§2.4, §3.2). Every binding in env predates
// the range, so only the value can have put them there. The scan costs
// O(|Γ|) per let.
func (c *Checker) generalizeFrom(env *Env, startVar, startCon int, body *qtype.QType) *Scheme {
	g := &generic{
		iface: qtype.FreeQVars(body, nil),
		vars:  [2]int{startVar, c.Sys.NumVars()},
		cons:  [2]int{startCon, c.Sys.NumConstraints()},
	}
	free := c.free[:0]
	for e := env; e != nil; e = e.next {
		free = qtype.FreeQVars(e.scheme.Body, free)
	}
	for _, v := range free {
		if g.inRange(v) {
			g.escaped = append(g.escaped, v)
		}
	}
	c.free = free[:0]
	slices.Sort(g.escaped)
	g.escaped = slices.Compact(g.escaped)
	return &Scheme{Body: body, gen: g}
}

// inRange reports whether v was created while the value was inferred.
func (g *generic) inRange(v constraint.Var) bool {
	return int(v) >= g.vars[0] && int(v) < g.vars[1]
}

// local reports whether v may be quantified: it was created while the
// value was inferred and is not free in the environment.
func (g *generic) local(v constraint.Var) bool {
	if !g.inRange(v) {
		return false
	}
	_, free := slices.BinarySearch(g.escaped, v)
	return !free
}

// Instantiate implements the (Var') rule: the scheme's quantified
// qualifier variables are replaced with fresh ones in both the body and
// an instance of its projected constraints. Type variables are shared —
// polymorphism ranges over qualifiers only.
func (c *Checker) Instantiate(s *Scheme) *qtype.QType {
	g := s.gen
	if g == nil {
		return s.Body
	}
	if g.proj == nil && c.generalize != nil {
		c.generalize(g)
	} else if g.proj == nil {
		g.qvars, g.proj = c.Sys.Generalize(g.iface, g.local, g.cons)
	}
	if len(g.qvars) == 0 && len(g.proj.Cons) == 0 {
		return s.Body
	}
	rename := make(map[constraint.Var]constraint.Var, len(g.qvars))
	for _, v := range g.qvars {
		rename[v] = c.Sys.Fresh()
	}
	c.Sys.Instantiate(g.proj, rename)
	return renameQType(s.Body, rename, map[*qtype.Type]*qtype.Type{})
}

func renameQType(q *qtype.QType, rename map[constraint.Var]constraint.Var, memo map[*qtype.Type]*qtype.Type) *qtype.QType {
	out := &qtype.QType{Q: q.Q, T: renameType(q.T, rename, memo)}
	if q.Q.IsVar() {
		if nv, ok := rename[q.Q.Var()]; ok {
			out.Q = constraint.V(nv)
		}
	}
	return out
}

func renameType(t *qtype.Type, rename map[constraint.Var]constraint.Var, memo map[*qtype.Type]*qtype.Type) *qtype.Type {
	t = t.Resolve()
	if t.Con == nil {
		// Unbound type variables are shared across instantiations:
		// qualifier polymorphism does not copy type structure.
		return t
	}
	if got, ok := memo[t]; ok {
		return got
	}
	args := make([]*qtype.QType, len(t.Args))
	out := &qtype.Type{Con: t.Con, Args: args}
	memo[t] = out
	for i, a := range t.Args {
		args[i] = renameQType(a, rename, memo)
	}
	return out
}

// Result bundles the outcome of a whole-program check.
type Result struct {
	// Type is the program's qualified type.
	Type *qtype.QType
	// Sys is the solved constraint system, usable for classification.
	Sys *constraint.System
	// Conflicts are the unsatisfiable qualifier constraints (nil when the
	// program is qualifier-correct).
	Conflicts []*constraint.Unsat
}

// Check infers and solves in one step, starting from an empty (or
// caller-provided) environment.
func (c *Checker) Check(env *Env, e lambda.Expr) (*Result, error) {
	qt, err := c.Infer(env, e)
	if err != nil {
		return nil, err
	}
	return &Result{Type: qt, Sys: c.Sys, Conflicts: c.Sys.Solve()}, nil
}

// CheckSource parses and checks a program in one step.
func (c *Checker) CheckSource(file, src string) (*Result, error) {
	e, err := lambda.Parse(file, src)
	if err != nil {
		return nil, err
	}
	return c.Check(nil, e)
}
