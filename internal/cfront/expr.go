package cfront

// Expression parsing: the complete C expression grammar, precedence
// climbing from comma down to primary.

func (p *Parser) parseExpr() (Expr, error) {
	e, err := p.parseAssignment()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == COMMA {
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.parseAssignment()
		if err != nil {
			return nil, err
		}
		e = &Comma{L: e, R: r, Pos: pos}
	}
	return e, nil
}

// infixOp describes a token kind as an operator between two operands:
// a binary operator's precedence, from 1 for || to 10 for * / % (0 for
// every other kind), or an assignment; and the node's operator.
type infixOp struct {
	prec   int8
	assign bool
	op     BinaryOp
}

// infixOps is the one precedence table of the expression grammar,
// indexed by token kind.
var infixOps = [len(tokText)]infixOp{
	OROR:   {prec: 1, op: BLOr},
	ANDAND: {prec: 2, op: BLAnd},
	PIPE:   {prec: 3, op: BOr},
	CARET:  {prec: 4, op: BXor},
	AMP:    {prec: 5, op: BAnd},
	EQ:     {prec: 6, op: BEq}, NE: {prec: 6, op: BNe},
	LT: {prec: 7, op: BLt}, GT: {prec: 7, op: BGt}, LE: {prec: 7, op: BLe}, GE: {prec: 7, op: BGe},
	SHL: {prec: 8, op: BShl}, SHR: {prec: 8, op: BShr},
	PLUS: {prec: 9, op: BAdd}, MINUS: {prec: 9, op: BSub},
	STAR: {prec: 10, op: BMul}, SLASH: {prec: 10, op: BDiv}, PERCENT: {prec: 10, op: BMod},

	ASSIGN: {assign: true, op: PlainAssign},
	MULEQ:  {assign: true, op: BMul}, DIVEQ: {assign: true, op: BDiv},
	MODEQ: {assign: true, op: BMod}, ADDEQ: {assign: true, op: BAdd},
	SUBEQ: {assign: true, op: BSub}, SHLEQ: {assign: true, op: BShl},
	SHREQ: {assign: true, op: BShr}, ANDEQ: {assign: true, op: BAnd},
	XOREQ: {assign: true, op: BXor}, OREQ: {assign: true, op: BOr},
}

func (p *Parser) parseAssignment() (Expr, error) {
	l, err := p.parseConditional()
	if err != nil {
		return nil, err
	}
	if o := infixOps[p.tok.Kind]; o.assign {
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.enter(); err != nil {
			return nil, err
		}
		r, err := p.parseAssignment()
		p.leave()
		if err != nil {
			return nil, err
		}
		a := p.assigns.alloc(&p.lex, assignBytes)
		*a = AssignExpr{Op: o.op, L: l, R: r, Pos: pos}
		return a, nil
	}
	return l, nil
}

func (p *Parser) parseConditional() (Expr, error) {
	c, err := p.parseBinary()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != QUESTION {
		return c, nil
	}
	pos := p.tok.Pos
	if err := p.next(); err != nil {
		return nil, err
	}
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(COLON); err != nil {
		return nil, err
	}
	f, err := p.parseConditional()
	if err != nil {
		return nil, err
	}
	return &Cond{C: c, T: t, F: f, Pos: pos}, nil
}

// parseBinary parses a binary expression by precedence climbing over
// infixOps.
func (p *Parser) parseBinary() (Expr, error) {
	x, err := p.parseCastExpr()
	if err != nil {
		return nil, err
	}
	return p.climb(x, 1)
}

// climb extends the operand x with every binary operator of precedence
// lowest or above. Operators of equal precedence group to the left; climb
// recurses only for an operator that binds tighter than the one before
// it, so an operand costs one call, not one per precedence level.
func (p *Parser) climb(x Expr, lowest int8) (Expr, error) {
	for {
		o := infixOps[p.tok.Kind]
		if o.prec < lowest {
			return x, nil
		}
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		y, err := p.parseCastExpr()
		if err != nil {
			return nil, err
		}
		if infixOps[p.tok.Kind].prec > o.prec {
			if y, err = p.climb(y, o.prec+1); err != nil {
				return nil, err
			}
		}
		b := p.binaries.alloc(&p.lex, binaryBytes)
		*b = Binary{Op: o.op, L: x, R: y, Pos: pos}
		x = b
	}
}

// parseCastExpr handles "(type-name) cast-expr" versus parenthesized
// expressions.
func (p *Parser) parseCastExpr() (Expr, error) {
	if p.tok.Kind == LPAREN && p.parenIsTypeName() {
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		t, err := p.parseTypeName()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		x, err := p.parseCastExpr()
		if err != nil {
			return nil, err
		}
		return &Cast{To: t, X: x, Pos: pos}, nil
	}
	return p.parseUnary()
}

// parenIsTypeName looks one token past '(' to decide cast vs expression.
func (p *Parser) parenIsTypeName() bool {
	switch t := p.peek(); t.Kind {
	case kwVoid, kwChar, kwInt, kwLong, kwShort, kwSigned, kwUnsigned,
		kwFloat, kwDouble, kwConst, kwVolatile, kwStruct, kwUnion, kwEnum:
		return true
	case IDENT:
		_, ok := p.typedefs[t.Text]
		return ok
	default:
		return false
	}
}

// parseTypeName parses a type-name (declaration-specifiers plus an
// abstract declarator), used in casts and sizeof.
func (p *Parser) parseTypeName() (*Type, error) {
	ds, err := p.parseDeclSpecs()
	if err != nil {
		return nil, err
	}
	if ds.storage != SCNone {
		return nil, p.errf("storage class in type name")
	}
	name, typ, _, err := p.parseDeclarator(ds.base, true)
	if err != nil {
		return nil, err
	}
	if name != "" {
		return nil, p.errf("unexpected name %q in type name", name)
	}
	return typ, nil
}

// prefixOps maps the tokens of the unary operators that take a cast
// expression to their operators.
var prefixOps = [len(tokText)]UnaryOp{
	AMP: UAddr, STAR: UDeref, PLUS: UPlus, MINUS: UNeg, TILDE: UBNot, NOT: UNot,
}

// parseUnary counts one nesting level, which also bounds parentheses,
// subscripts and call arguments: every nested expression reaches its
// primary through here.
func (p *Parser) parseUnary() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	pos := p.tok.Pos
	switch p.tok.Kind {
	case INC, DEC:
		op := UPreInc
		if p.tok.Kind == DEC {
			op = UPreDec
		}
		if err := p.next(); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: op, X: x, Pos: pos}, nil
	case AMP, STAR, PLUS, MINUS, TILDE, NOT:
		op := prefixOps[p.tok.Kind]
		if err := p.next(); err != nil {
			return nil, err
		}
		x, err := p.parseCastExpr()
		if err != nil {
			return nil, err
		}
		u := p.unaries.alloc(&p.lex, unaryBytes)
		*u = Unary{Op: op, X: x, Pos: pos}
		return u, nil
	case kwSizeof:
		if err := p.next(); err != nil {
			return nil, err
		}
		if p.tok.Kind == LPAREN && p.parenIsTypeName() {
			if err := p.next(); err != nil {
				return nil, err
			}
			t, err := p.parseTypeName()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			return &SizeofType{T: t, Pos: pos}, nil
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &SizeofExpr{X: x, Pos: pos}, nil
	default:
		return p.parsePostfix()
	}
}

func (p *Parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		pos := p.tok.Pos
		switch p.tok.Kind {
		case LBRACK:
			if err := p.next(); err != nil {
				return nil, err
			}
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBRACK); err != nil {
				return nil, err
			}
			e = &Index{X: e, I: idx, Pos: pos}
		case LPAREN:
			if err := p.next(); err != nil {
				return nil, err
			}
			base := len(p.args)
			for p.tok.Kind != RPAREN {
				a, err := p.parseAssignment()
				if err != nil {
					return nil, err
				}
				p.args = append(p.args, a)
				if p.tok.Kind != COMMA {
					break
				}
				if err := p.next(); err != nil {
					return nil, err
				}
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			c := p.calls.alloc(&p.lex, callBytes)
			*c = Call{Fn: e, Args: popStack(&p.args, base), Pos: pos}
			e = c
		case DOT, ARROW:
			arrow := p.tok.Kind == ARROW
			if err := p.next(); err != nil {
				return nil, err
			}
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			e = &Member{X: e, Name: name.Text, Arrow: arrow, Pos: pos}
		case INC, DEC:
			op := UPreInc
			if p.tok.Kind == DEC {
				op = UPreDec
			}
			if err := p.next(); err != nil {
				return nil, err
			}
			e = &Postfix{Op: op, X: e, Pos: pos}
		default:
			return e, nil
		}
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case IDENT:
		id := p.idents.alloc(&p.lex, identBytes)
		*id = Ident{Name: p.tok.Text, Pos: pos}
		return id, p.next()
	case INTLIT:
		lit := p.intLits.alloc(&p.lex, intLitBytes)
		*lit = IntLit{Text: p.tok.Text, Val: parseIntText(p.tok.Text), Pos: pos}
		return lit, p.next()
	case FLOATLIT:
		text := p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
		return &FloatLit{Text: text, Pos: pos}, nil
	case CHARLIT:
		text := p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
		return &CharLit{Text: text, Pos: pos}, nil
	case STRLIT:
		text := p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
		// Adjacent string literals concatenate.
		for p.tok.Kind == STRLIT {
			text = text[:len(text)-1] + p.tok.Text[1:]
			if err := p.next(); err != nil {
				return nil, err
			}
		}
		return &StrLit{Text: text, Pos: pos}, nil
	case LPAREN:
		if err := p.next(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, p.errf("expected expression, found %s %q", p.tok.Kind, p.tok.Text)
	}
}
