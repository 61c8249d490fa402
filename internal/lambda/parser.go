package lambda

import "fmt"

// Parse parses a complete program of the example language. The file name
// is used only for positions in error messages.
func Parse(file, src string) (Expr, error) {
	p := &parser{lex: newLexer(file, src)}
	if err := p.next(); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, &SyntaxError{Pos: p.tok.pos, Msg: fmt.Sprintf("unexpected %s after expression", p.tok.kind)}
	}
	return e, nil
}

// MustParse parses src and panics on error; for tests and examples with
// literal programs.
func MustParse(src string) Expr {
	e, err := Parse("", src)
	if err != nil {
		panic(err)
	}
	return e
}

type parser struct {
	lex *lexer
	tok token

	depth int // current grammar nesting; see enter
}

// maxDepth bounds the nesting of the recursive grammar: every
// expression, prefix operator (ref, !, @q) and parenthesised atom adds
// one level. Without it, an input such
// as 2,000,000 nested '(' overflows the goroutine stack, a fatal error
// that no recover can catch.
const maxDepth = 10000

// enter counts one level of grammar nesting, failing with a syntax
// error past maxDepth. Every successful enter is paired with a leave.
func (p *parser) enter() error {
	if p.depth >= maxDepth {
		return &SyntaxError{Pos: p.tok.pos, Msg: fmt.Sprintf("nesting deeper than %d levels", maxDepth)}
	}
	p.depth++
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) next() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expect(k tokKind) (token, error) {
	if p.tok.kind != k {
		return token{}, &SyntaxError{Pos: p.tok.pos, Msg: fmt.Sprintf("expected %s, found %s", k, p.tok.kind)}
	}
	t := p.tok
	if err := p.next(); err != nil {
		return token{}, err
	}
	return t, nil
}

// parseExpr parses the full expression grammar, including trailing
// sequencing and lambda abstractions that extend to the right.
func (p *parser) parseExpr() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	if p.tok.kind == tokFn {
		return p.parseLambda()
	}
	e, err := p.parseAssign()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokSemi {
		pos := p.tok.pos
		if err := p.next(); err != nil {
			return nil, err
		}
		rest, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		// e1 ; e2 desugars to let _ = e1 in e2 ni.
		e = &Let{Name: "_", Init: e, Body: rest, P: pos}
	}
	return e, nil
}

func (p *parser) parseLambda() (Expr, error) {
	pos := p.tok.pos
	if err := p.next(); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokArrow); err != nil {
		return nil, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &Lam{Param: name.text, Body: body, P: pos}, nil
}

func (p *parser) parseAssign() (Expr, error) {
	lhs, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokAssign {
		return lhs, nil
	}
	pos := p.tok.pos
	if err := p.next(); err != nil {
		return nil, err
	}
	var rhs Expr
	if p.tok.kind == tokFn {
		rhs, err = p.parseLambda()
	} else {
		rhs, err = p.parseAssign()
	}
	if err != nil {
		return nil, err
	}
	return &Assign{Lhs: lhs, Rhs: rhs, P: pos}, nil
}

func (p *parser) parseCmp() (Expr, error) {
	e, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokEqEq || p.tok.kind == tokLt {
		op := OpEq
		if p.tok.kind == tokLt {
			op = OpLt
		}
		pos := p.tok.pos
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		e = &Bin{Op: op, L: e, R: r, P: pos}
	}
	return e, nil
}

func (p *parser) parseAdd() (Expr, error) {
	e, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokPlus || p.tok.kind == tokMinus {
		op := OpAdd
		if p.tok.kind == tokMinus {
			op = OpSub
		}
		pos := p.tok.pos
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		e = &Bin{Op: op, L: e, R: r, P: pos}
	}
	return e, nil
}

func (p *parser) parseMul() (Expr, error) {
	e, err := p.parseApp()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokStar || p.tok.kind == tokSlash {
		op := OpMul
		if p.tok.kind == tokSlash {
			op = OpDiv
		}
		pos := p.tok.pos
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseApp()
		if err != nil {
			return nil, err
		}
		e = &Bin{Op: op, L: e, R: r, P: pos}
	}
	return e, nil
}

// startsUnit reports whether the current token can begin an application
// operand.
func (p *parser) startsUnit() bool {
	switch p.tok.kind {
	case tokIdent, tokInt, tokLParen, tokRef, tokBang, tokAt, tokLet, tokLetRec, tokIf:
		return true
	default:
		return false
	}
}

func (p *parser) parseApp() (Expr, error) {
	e, err := p.parsePrefix()
	if err != nil {
		return nil, err
	}
	for p.startsUnit() {
		arg, err := p.parsePrefix()
		if err != nil {
			return nil, err
		}
		e = &App{Fn: e, Arg: arg, P: e.Pos()}
	}
	return e, nil
}

func (p *parser) parsePrefix() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	switch p.tok.kind {
	case tokRef:
		pos := p.tok.pos
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.parsePrefix()
		if err != nil {
			return nil, err
		}
		return &Ref{E: e, P: pos}, nil
	case tokBang:
		pos := p.tok.pos
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.parsePrefix()
		if err != nil {
			return nil, err
		}
		return &Deref{E: e, P: pos}, nil
	case tokAt:
		pos := p.tok.pos
		if err := p.next(); err != nil {
			return nil, err
		}
		name, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		e, err := p.parsePrefix()
		if err != nil {
			return nil, err
		}
		return &Annot{Qual: name.text, E: e, P: pos}, nil
	default:
		return p.parsePostfix()
	}
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokPipe {
		pos := p.tok.pos
		if err := p.next(); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokLBrack); err != nil {
			return nil, err
		}
		var require, forbid []string
		for {
			if p.tok.kind == tokCaret {
				if err := p.next(); err != nil {
					return nil, err
				}
				name, err := p.expect(tokIdent)
				if err != nil {
					return nil, err
				}
				forbid = append(forbid, name.text)
			} else {
				name, err := p.expect(tokIdent)
				if err != nil {
					return nil, err
				}
				require = append(require, name.text)
			}
			if p.tok.kind != tokComma {
				break
			}
			if err := p.next(); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(tokRBrack); err != nil {
			return nil, err
		}
		e = &Assert{E: e, Require: require, Forbid: forbid, P: pos}
	}
	return e, nil
}

func (p *parser) parseAtom() (Expr, error) {
	switch p.tok.kind {
	case tokIdent:
		t := p.tok
		if err := p.next(); err != nil {
			return nil, err
		}
		return &Var{Name: t.text, P: t.pos}, nil
	case tokInt:
		t := p.tok
		if err := p.next(); err != nil {
			return nil, err
		}
		return &IntLit{Val: t.val, P: t.pos}, nil
	case tokLParen:
		t := p.tok
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokRParen {
			if err := p.next(); err != nil {
				return nil, err
			}
			return &UnitLit{P: t.pos}, nil
		}
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokLet, tokLetRec:
		rec := p.tok.kind == tokLetRec
		pos := p.tok.pos
		if err := p.next(); err != nil {
			return nil, err
		}
		name, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokEq); err != nil {
			return nil, err
		}
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokIn); err != nil {
			return nil, err
		}
		body, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokNi); err != nil {
			return nil, err
		}
		if rec {
			return &LetRec{Name: name.text, Init: init, Body: body, P: pos}, nil
		}
		return &Let{Name: name.text, Init: init, Body: body, P: pos}, nil
	case tokIf:
		pos := p.tok.pos
		if err := p.next(); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokThen); err != nil {
			return nil, err
		}
		thn, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokElse); err != nil {
			return nil, err
		}
		els, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokFi); err != nil {
			return nil, err
		}
		return &If{Cond: cond, Then: thn, Else: els, P: pos}, nil
	case tokFn:
		return nil, &SyntaxError{Pos: p.tok.pos, Msg: "lambda abstraction must be parenthesized in this position"}
	default:
		return nil, &SyntaxError{Pos: p.tok.pos, Msg: fmt.Sprintf("expected expression, found %s", p.tok.kind)}
	}
}
