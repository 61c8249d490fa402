// Package initcheck is a flow-sensitive qualifier analysis for C built on
// the Section 6 extension of "A Theory of Type Qualifiers" (PLDI 1999):
// every local scalar variable gets a distinct qualifier variable per
// program point, definite assignments are strong updates that clear the
// positive qualifier "uninit", control-flow joins merge branch points,
// and every read asserts ¬uninit. This is the lclint-style analysis the
// paper says the flow-insensitive framework cannot express — and the
// flow-sensitive machinery (infer.Flow) can.
//
// The checker is intentionally scoped to the paper's sketch: it tracks
// scalar locals whose address is never taken; pointers, aggregates, and
// address-taken variables are conservatively treated as initialized on
// declaration (a may-alias write would be a weak update anyway).
package initcheck

import (
	"fmt"
	"sort"

	"repro/internal/cfront"
	"repro/internal/constraint"
	"repro/internal/infer"
	"repro/internal/qual"
)

// Warning reports a read of a possibly-uninitialized variable.
type Warning struct {
	Func string
	Var  string
	Pos  constraint.Pos
}

func (w Warning) String() string {
	return fmt.Sprintf("%s: variable %q may be used uninitialized in %s", w.Pos, w.Var, w.Func)
}

// CheckFile analyzes every function in the file and returns the warnings,
// sorted by position.
func CheckFile(f *cfront.File) []Warning {
	var out []Warning
	for _, d := range f.Decls {
		if fd, ok := d.(*cfront.FuncDecl); ok && fd.Body != nil {
			out = append(out, checkFunc(f.Name, fd)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Pos.Col < out[j].Pos.Col
	})
	return out
}

// CheckSource parses and checks one file.
func CheckSource(name, src string) ([]Warning, error) {
	f, err := cfront.Parse(name, src)
	if err != nil {
		return nil, err
	}
	return CheckFile(f), nil
}

type checker struct {
	set      *qual.Set
	sys      *constraint.System
	file     string // the translation unit's name, for positions
	fn       string
	uninit   qual.Elem
	notUnin  qual.Elem
	tracked  map[string]bool // locals we track (scalar, address never taken)
	warnings []Warning
	// useSites maps constraint index to the use it checks, for reporting.
	uses []Warning
}

func checkFunc(file string, fd *cfront.FuncDecl) []Warning {
	set := qual.MustSet(qual.Qualifier{Name: "uninit", Sign: qual.Positive})
	c := &checker{
		set:     set,
		sys:     constraint.NewSystem(set),
		file:    file,
		fn:      fd.Name,
		uninit:  set.MustOnly("uninit"),
		notUnin: set.MustNot("uninit"),
		tracked: map[string]bool{},
	}
	// Pass 1: find address-taken locals; they are untracked.
	addrTaken := map[string]bool{}
	cfront.WalkExprs(fd.Body, func(e cfront.Expr) bool {
		switch e := e.(type) {
		case *cfront.SizeofExpr:
			return false // sizeof does not evaluate its operand
		case *cfront.Unary:
			if id, ok := e.X.(*cfront.Ident); ok && e.Op == cfront.UAddr {
				addrTaken[id.Name] = true
			}
		}
		return true
	})

	flow := infer.NewFlow(c.sys)
	// Parameters are initialized by the caller.
	for _, p := range fd.Type.Params() {
		if p.Name != "" {
			flow.Declare(p.Name, set.Bottom(), constraint.Reason{Msg: "parameter"})
		}
	}
	c.stmt(flow, fd.Body, addrTaken)

	// Solve once; each recorded use constraint that fails becomes a
	// warning. The solver reports every violated sink constraint.
	for _, u := range c.sys.Solve() {
		// Match the failing constraint back to a recorded use by its
		// provenance position.
		pos := u.Con.Why.Pos
		for _, use := range c.uses {
			if use.Pos == pos {
				c.warnings = append(c.warnings, use)
				break
			}
		}
	}
	return c.warnings
}

func (c *checker) trackable(v *cfront.VarDecl, addrTaken map[string]bool) bool {
	if v.Storage == cfront.SCStatic || v.Storage == cfront.SCExtern {
		return false // statics are zero-initialized; externs elsewhere
	}
	if addrTaken[v.Name] {
		return false
	}
	switch v.Type.Kind {
	case cfront.TInt, cfront.TChar, cfront.TFloat, cfront.TEnum, cfront.TPointer:
		return true
	default:
		return false
	}
}

func (c *checker) stmt(flow *infer.Flow, s cfront.Stmt, addrTaken map[string]bool) {
	switch s := s.(type) {
	case nil:
	case *cfront.Block:
		for _, it := range s.Items {
			c.stmt(flow, it, addrTaken)
		}
	case *cfront.DeclStmt:
		for _, d := range s.Decls {
			v, ok := d.(*cfront.VarDecl)
			if !ok {
				continue
			}
			if v.Init != nil {
				c.expr(flow, v.Init)
			}
			if !c.trackable(v, addrTaken) {
				continue
			}
			initial := c.uninit
			if v.Init != nil {
				initial = c.set.Bottom()
			}
			c.tracked[v.Name] = true
			flow.Declare(v.Name, initial, c.why(v.Pos, "declaration of "+v.Name))
		}
	case *cfront.ExprStmt:
		c.expr(flow, s.X)
	case *cfront.EmptyStmt:
	case *cfront.IfStmt:
		c.expr(flow, s.Cond)
		thenBr := flow.Fork()
		c.stmt(thenBr, s.Then, addrTaken)
		elseBr := flow.Fork()
		c.stmt(elseBr, s.Else, addrTaken)
		thenBr.Join(elseBr, c.why(s.Pos, "if join"))
		*flow = *thenBr
	case *cfront.WhileStmt:
		c.expr(flow, s.Cond)
		entry := flow.Fork()
		body := flow.Fork()
		c.stmt(body, s.Body, addrTaken)
		body.Widen(entry, c.why(s.Pos, "loop back-edge"))
		// Zero-iteration path: continue from entry (Widen already merged
		// body effects into entry's points).
		*flow = *entry
	case *cfront.DoWhileStmt:
		// The body runs at least once.
		entry := flow.Fork()
		c.stmt(flow, s.Body, addrTaken)
		c.expr(flow, s.Cond)
		flow.Widen(entry, c.why(s.Pos, "do-while back-edge"))
		// Unlike while, effects of one guaranteed iteration are kept weak
		// through the widen; this is conservative.
	case *cfront.ForStmt:
		c.stmt(flow, s.Init, addrTaken)
		if s.Cond != nil {
			c.expr(flow, s.Cond)
		}
		entry := flow.Fork()
		body := flow.Fork()
		c.stmt(body, s.Body, addrTaken)
		if s.Post != nil {
			c.expr(body, s.Post)
		}
		body.Widen(entry, c.why(s.Pos, "loop back-edge"))
		*flow = *entry
	case *cfront.ReturnStmt:
		if s.Value != nil {
			c.expr(flow, s.Value)
		}
	case *cfront.BreakStmt, *cfront.ContinueStmt, *cfront.GotoStmt:
	case *cfront.LabelStmt:
		c.stmt(flow, s.Stmt, addrTaken)
	case *cfront.SwitchStmt:
		c.expr(flow, s.Tag)
		// Each case is a branch from the switch head; conservatively fork
		// and join the whole body once (cases rarely initialize in a way
		// this simple model could prove anyway).
		body := flow.Fork()
		c.stmt(body, s.Body, addrTaken)
		body.Join(flow, c.why(s.Pos, "switch join"))
		*flow = *body
	case *cfront.CaseStmt:
		if s.Value != nil {
			c.expr(flow, s.Value)
		}
		c.stmt(flow, s.Stmt, addrTaken)
	}
}

// expr walks an expression: reads of tracked variables assert ¬uninit,
// assignments strong-update.
func (c *checker) expr(flow *infer.Flow, e cfront.Expr) {
	switch e := e.(type) {
	case nil:
	case *cfront.Ident:
		if c.tracked[e.Name] {
			c.use(flow, e.Name, e.Pos)
		}
	case *cfront.IntLit, *cfront.FloatLit, *cfront.CharLit, *cfront.StrLit, *cfront.SizeofType:
	case *cfront.SizeofExpr:
		// Operand not evaluated.
	case *cfront.Unary:
		switch e.Op {
		case cfront.UPreInc, cfront.UPreDec:
			// Read-modify-write: a read and then a strong update.
			if id, ok := e.X.(*cfront.Ident); ok && c.tracked[id.Name] {
				c.use(flow, id.Name, e.Pos)
				c.assign(flow, id.Name, e.Pos)
				return
			}
			c.expr(flow, e.X)
		default:
			c.expr(flow, e.X)
		}
	case *cfront.Postfix:
		if id, ok := e.X.(*cfront.Ident); ok && c.tracked[id.Name] {
			c.use(flow, id.Name, e.Pos)
			c.assign(flow, id.Name, e.Pos)
			return
		}
		c.expr(flow, e.X)
	case *cfront.Binary:
		c.expr(flow, e.L)
		c.expr(flow, e.R)
	case *cfront.AssignExpr:
		c.expr(flow, e.R)
		if id, ok := e.L.(*cfront.Ident); ok && c.tracked[id.Name] {
			if e.Op != cfront.PlainAssign {
				// Compound assignment reads the old value first.
				c.use(flow, id.Name, e.Pos)
			}
			c.assign(flow, id.Name, e.Pos)
			return
		}
		c.expr(flow, e.L)
	case *cfront.Cond:
		c.expr(flow, e.C)
		// Branch values evaluated under forks; variable states merge.
		t := flow.Fork()
		c.expr(t, e.T)
		f := flow.Fork()
		c.expr(f, e.F)
		t.Join(f, c.why(e.Pos, "?: join"))
		*flow = *t
	case *cfront.Call:
		c.expr(flow, e.Fn)
		for _, a := range e.Args {
			c.expr(flow, a)
		}
	case *cfront.Index:
		c.expr(flow, e.X)
		c.expr(flow, e.I)
	case *cfront.Member:
		c.expr(flow, e.X)
	case *cfront.Cast:
		c.expr(flow, e.X)
	case *cfront.Comma:
		c.expr(flow, e.L)
		c.expr(flow, e.R)
	case *cfront.InitList:
		for _, it := range e.Items {
			c.expr(flow, it)
		}
	}
}

func (c *checker) use(flow *infer.Flow, name string, pos cfront.Pos) {
	w := Warning{Func: c.fn, Var: name, Pos: c.cpos(pos)}
	c.uses = append(c.uses, w)
	_ = flow.Assert(name, c.notUnin, c.why(pos, "use of "+name))
}

func (c *checker) assign(flow *infer.Flow, name string, pos cfront.Pos) {
	fresh := constraint.V(c.sys.Fresh())
	_ = flow.StrongUpdate(name, fresh, c.why(pos, "assignment to "+name))
}

func (c *checker) why(pos cfront.Pos, msg string) constraint.Reason {
	return constraint.Reason{Pos: c.cpos(pos), Msg: msg}
}

// cpos places a position of the checked file.
func (c *checker) cpos(p cfront.Pos) constraint.Pos {
	return constraint.Pos{File: c.file, Line: p.Line, Col: p.Col}
}
