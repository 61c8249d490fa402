// Package progen generates random closed programs of the example
// language for property-based testing. Generation is type-directed over a
// small universe of standard types, so every generated program is
// well-typed in the underlying simply-typed system; qualifier annotations
// and assertions are sprinkled independently, so the qualified system may
// or may not accept a given program. Soundness tests evaluate only the
// accepted ones.
package progen

import (
	"fmt"
	"math/rand"

	"repro/internal/lambda"
)

// Typ is the generator's standard-type universe.
type Typ int

// The generator's type universe.
const (
	TInt Typ = iota
	TUnit
	TRefInt
	TFunIntInt
)

func (t Typ) String() string {
	switch t {
	case TInt:
		return "int"
	case TUnit:
		return "unit"
	case TRefInt:
		return "ref int"
	case TFunIntInt:
		return "int -> int"
	default:
		return fmt.Sprintf("Typ(%d)", int(t))
	}
}

type binding struct {
	name string
	typ  Typ
}

// Config controls generation.
type Config struct {
	// MaxDepth bounds expression nesting.
	MaxDepth int
	// Annotate lists positive qualifier names randomly applied to values.
	Annotate []string
	// AssertAbsent lists positive qualifier names randomly asserted
	// absent (e |[^q]).
	AssertAbsent []string
	// NegAnnotate lists negative qualifier names randomly applied to
	// nonzero integer literals only (honest annotations).
	NegAnnotate []string
	// AssertPresent lists negative qualifier names randomly asserted
	// present (e |[q]).
	AssertPresent []string
}

// DefaultConfig annotates and asserts the const qualifier.
func DefaultConfig() Config {
	return Config{
		MaxDepth:     6,
		Annotate:     []string{"const"},
		AssertAbsent: []string{"const"},
	}
}

// Gen is a deterministic random program generator.
type Gen struct {
	rng  *rand.Rand
	cfg  Config
	next int
}

// New creates a generator with the given seed.
func New(seed int64, cfg Config) *Gen {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 6
	}
	return &Gen{rng: rand.New(rand.NewSource(seed)), cfg: cfg}
}

// Program generates one closed program of integer type.
func (g *Gen) Program() lambda.Expr {
	g.next = 0
	return g.expr(nil, TInt, g.cfg.MaxDepth)
}

// ProgramOf generates one closed program of the requested type.
func (g *Gen) ProgramOf(t Typ) lambda.Expr {
	g.next = 0
	return g.expr(nil, t, g.cfg.MaxDepth)
}

func (g *Gen) fresh() string {
	g.next++
	return fmt.Sprintf("v%d", g.next)
}

func (g *Gen) pickVar(env []binding, t Typ) (string, bool) {
	var candidates []string
	for _, b := range env {
		if b.typ == t {
			candidates = append(candidates, b.name)
		}
	}
	if len(candidates) == 0 {
		return "", false
	}
	return candidates[g.rng.Intn(len(candidates))], true
}

// decorate possibly wraps a value-producing expression with annotations
// and assertions.
func (g *Gen) decorate(e lambda.Expr, isNonzeroLit bool) lambda.Expr {
	if len(g.cfg.Annotate) > 0 && g.rng.Intn(6) == 0 && lambda.IsValue(e) {
		q := g.cfg.Annotate[g.rng.Intn(len(g.cfg.Annotate))]
		e = &lambda.Annot{Qual: q, E: e}
	}
	if len(g.cfg.NegAnnotate) > 0 && isNonzeroLit && g.rng.Intn(4) == 0 {
		q := g.cfg.NegAnnotate[g.rng.Intn(len(g.cfg.NegAnnotate))]
		e = &lambda.Annot{Qual: q, E: e}
	}
	if len(g.cfg.AssertAbsent) > 0 && g.rng.Intn(10) == 0 {
		q := g.cfg.AssertAbsent[g.rng.Intn(len(g.cfg.AssertAbsent))]
		e = &lambda.Assert{E: e, Forbid: []string{q}}
	}
	if len(g.cfg.AssertPresent) > 0 && g.rng.Intn(10) == 0 {
		q := g.cfg.AssertPresent[g.rng.Intn(len(g.cfg.AssertPresent))]
		e = &lambda.Assert{E: e, Require: []string{q}}
	}
	return e
}

func (g *Gen) expr(env []binding, want Typ, depth int) lambda.Expr {
	if depth <= 0 {
		return g.leaf(env, want)
	}
	// Occasionally produce a leaf anyway for size variety.
	if g.rng.Intn(4) == 0 {
		return g.leaf(env, want)
	}
	switch g.rng.Intn(8) {
	case 0: // let of a random type
		bt := Typ(g.rng.Intn(4))
		name := g.fresh()
		init := g.expr(env, bt, depth-1)
		body := g.expr(append(env, binding{name, bt}), want, depth-1)
		return &lambda.Let{Name: name, Init: init, Body: body}
	case 7: // letrec over an int→int function
		name := g.fresh()
		param := g.fresh()
		fnEnv := append(env, binding{name, TFunIntInt}, binding{param, TInt})
		var body lambda.Expr
		if g.rng.Intn(2) == 0 {
			// Terminating shape: if p then f (p-1) else base fi.
			body = &lambda.If{
				Cond: &lambda.Var{Name: param},
				Then: &lambda.App{Fn: &lambda.Var{Name: name},
					Arg: &lambda.Bin{Op: lambda.OpSub, L: &lambda.Var{Name: param}, R: &lambda.IntLit{Val: 1}}},
				Else: g.expr(env, TInt, depth-2),
			}
		} else {
			body = g.expr(fnEnv, TInt, depth-2)
		}
		init := &lambda.Lam{Param: param, Body: body}
		outer := g.expr(append(env, binding{name, TFunIntInt}), want, depth-1)
		return &lambda.LetRec{Name: name, Init: init, Body: outer}
	case 1: // if
		return &lambda.If{
			Cond: g.expr(env, TInt, depth-1),
			Then: g.expr(env, want, depth-1),
			Else: g.expr(env, want, depth-1),
		}
	case 2: // sequencing through unit or an assignment
		if v, ok := g.pickVar(env, TRefInt); ok && g.rng.Intn(2) == 0 {
			asn := &lambda.Assign{Lhs: &lambda.Var{Name: v}, Rhs: g.expr(env, TInt, depth-1)}
			return &lambda.Let{Name: "_", Init: asn, Body: g.expr(env, want, depth-1)}
		}
		return &lambda.Let{Name: "_", Init: g.expr(env, TUnit, depth-1), Body: g.expr(env, want, depth-1)}
	default:
		return g.typed(env, want, depth)
	}
}

func (g *Gen) typed(env []binding, want Typ, depth int) lambda.Expr {
	switch want {
	case TInt:
		switch g.rng.Intn(4) {
		case 0: // arithmetic
			ops := []lambda.BinOp{lambda.OpAdd, lambda.OpSub, lambda.OpMul, lambda.OpEq, lambda.OpLt, lambda.OpDiv}
			op := ops[g.rng.Intn(len(ops))]
			r := g.expr(env, TInt, depth-1)
			if op == lambda.OpDiv {
				// Honest divisors: a nonzero literal, possibly annotated.
				lit := &lambda.IntLit{Val: int64(1 + g.rng.Intn(9))}
				r = g.decorate(lit, true)
			}
			return &lambda.Bin{Op: op, L: g.expr(env, TInt, depth-1), R: r}
		case 1: // deref
			if v, ok := g.pickVar(env, TRefInt); ok {
				return &lambda.Deref{E: &lambda.Var{Name: v}}
			}
			return &lambda.Deref{E: g.expr(env, TRefInt, depth-1)}
		case 2: // apply
			if v, ok := g.pickVar(env, TFunIntInt); ok {
				return &lambda.App{Fn: &lambda.Var{Name: v}, Arg: g.expr(env, TInt, depth-1)}
			}
			return &lambda.App{Fn: g.expr(env, TFunIntInt, depth-1), Arg: g.expr(env, TInt, depth-1)}
		default:
			return g.leaf(env, TInt)
		}
	case TUnit:
		if v, ok := g.pickVar(env, TRefInt); ok && g.rng.Intn(2) == 0 {
			return &lambda.Assign{Lhs: &lambda.Var{Name: v}, Rhs: g.expr(env, TInt, depth-1)}
		}
		return g.leaf(env, TUnit)
	case TRefInt:
		return g.decorate(&lambda.Ref{E: g.expr(env, TInt, depth-1)}, false)
	case TFunIntInt:
		name := g.fresh()
		body := g.expr(append(env, binding{name, TInt}), TInt, depth-1)
		return g.decorate(&lambda.Lam{Param: name, Body: body}, false)
	default:
		panic("progen: unknown type")
	}
}

func (g *Gen) leaf(env []binding, want Typ) lambda.Expr {
	if v, ok := g.pickVar(env, want); ok && g.rng.Intn(2) == 0 {
		return &lambda.Var{Name: v}
	}
	switch want {
	case TInt:
		n := int64(g.rng.Intn(20))
		return g.decorate(&lambda.IntLit{Val: n}, n != 0)
	case TUnit:
		return &lambda.UnitLit{}
	case TRefInt:
		n := int64(g.rng.Intn(20))
		return g.decorate(&lambda.Ref{E: g.decorate(&lambda.IntLit{Val: n}, n != 0)}, false)
	case TFunIntInt:
		name := g.fresh()
		return g.decorate(&lambda.Lam{Param: name, Body: &lambda.Var{Name: name}}, false)
	default:
		panic("progen: unknown type")
	}
}
