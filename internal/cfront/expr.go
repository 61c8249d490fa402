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

var assignOps = map[TokKind]BinaryOp{
	ASSIGN: PlainAssign,
	MULEQ:  BMul, DIVEQ: BDiv, MODEQ: BMod, ADDEQ: BAdd, SUBEQ: BSub,
	SHLEQ: BShl, SHREQ: BShr, ANDEQ: BAnd, XOREQ: BXor, OREQ: BOr,
}

func (p *Parser) parseAssignment() (Expr, error) {
	l, err := p.parseConditional()
	if err != nil {
		return nil, err
	}
	if op, ok := assignOps[p.tok.Kind]; ok {
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
		return &AssignExpr{Op: op, L: l, R: r, Pos: pos}, nil
	}
	return l, nil
}

func (p *Parser) parseConditional() (Expr, error) {
	c, err := p.parseBinary(0)
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

// binLevels lists binary operators from lowest to highest precedence.
var binLevels = [][]struct {
	tok TokKind
	op  BinaryOp
}{
	{{OROR, BLOr}},
	{{ANDAND, BLAnd}},
	{{PIPE, BOr}},
	{{CARET, BXor}},
	{{AMP, BAnd}},
	{{EQ, BEq}, {NE, BNe}},
	{{LT, BLt}, {GT, BGt}, {LE, BLe}, {GE, BGe}},
	{{SHL, BShl}, {SHR, BShr}},
	{{PLUS, BAdd}, {MINUS, BSub}},
	{{STAR, BMul}, {SLASH, BDiv}, {PERCENT, BMod}},
}

func (p *Parser) parseBinary(level int) (Expr, error) {
	if level >= len(binLevels) {
		return p.parseCastExpr()
	}
	e, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, cand := range binLevels[level] {
			if p.tok.Kind == cand.tok {
				pos := p.tok.Pos
				if err := p.next(); err != nil {
					return nil, err
				}
				r, err := p.parseBinary(level + 1)
				if err != nil {
					return nil, err
				}
				e = &Binary{Op: cand.op, L: e, R: r, Pos: pos}
				matched = true
				break
			}
		}
		if !matched {
			return e, nil
		}
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
	saved := *p.lex
	savedTok := p.tok
	defer func() { *p.lex = saved; p.tok = savedTok }()
	if p.next() != nil {
		return false
	}
	switch p.tok.Kind {
	case kwVoid, kwChar, kwInt, kwLong, kwShort, kwSigned, kwUnsigned,
		kwFloat, kwDouble, kwConst, kwVolatile, kwStruct, kwUnion, kwEnum:
		return true
	case IDENT:
		_, ok := p.typedefs[p.tok.Text]
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
		ops := map[TokKind]UnaryOp{
			AMP: UAddr, STAR: UDeref, PLUS: UPlus, MINUS: UNeg,
			TILDE: UBNot, NOT: UNot,
		}
		op := ops[p.tok.Kind]
		if err := p.next(); err != nil {
			return nil, err
		}
		x, err := p.parseCastExpr()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: op, X: x, Pos: pos}, nil
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
			var args []Expr
			for p.tok.Kind != RPAREN {
				a, err := p.parseAssignment()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
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
			e = &Call{Fn: e, Args: args, Pos: pos}
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
		name := p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
		return &Ident{Name: name, Pos: pos}, nil
	case INTLIT:
		text := p.tok.Text
		if err := p.next(); err != nil {
			return nil, err
		}
		return &IntLit{Text: text, Val: parseIntText(text), Pos: pos}, nil
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
