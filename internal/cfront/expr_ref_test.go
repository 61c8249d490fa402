package cfront

// The reference expression parser: the expression grammar as it was
// before binary operators were parsed by precedence climbing, kept
// verbatim (names prefixed "ref"; type names still go through the
// parser's parseTypeName) as the oracle of TestBinaryPrecedenceReference
// and FuzzExprReference. It recurses through every precedence level for
// every operand and allocates each node on its own, so it must never
// move out of test code.

func (p *Parser) refParseExpr() (Expr, error) {
	e, err := p.refParseAssignment()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == COMMA {
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		r, err := p.refParseAssignment()
		if err != nil {
			return nil, err
		}
		e = &Comma{L: e, R: r, Pos: pos}
	}
	return e, nil
}

var refAssignOps = map[TokKind]BinaryOp{
	ASSIGN: PlainAssign,
	MULEQ:  BMul, DIVEQ: BDiv, MODEQ: BMod, ADDEQ: BAdd, SUBEQ: BSub,
	SHLEQ: BShl, SHREQ: BShr, ANDEQ: BAnd, XOREQ: BXor, OREQ: BOr,
}

func (p *Parser) refParseAssignment() (Expr, error) {
	l, err := p.refParseConditional()
	if err != nil {
		return nil, err
	}
	if op, ok := refAssignOps[p.tok.Kind]; ok {
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return nil, err
		}
		if err := p.enter(); err != nil {
			return nil, err
		}
		r, err := p.refParseAssignment()
		p.leave()
		if err != nil {
			return nil, err
		}
		return &AssignExpr{Op: op, L: l, R: r, Pos: pos}, nil
	}
	return l, nil
}

func (p *Parser) refParseConditional() (Expr, error) {
	c, err := p.refParseBinary(0)
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
	t, err := p.refParseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(COLON); err != nil {
		return nil, err
	}
	f, err := p.refParseConditional()
	if err != nil {
		return nil, err
	}
	return &Cond{C: c, T: t, F: f, Pos: pos}, nil
}

// refBinLevels lists binary operators from lowest to highest precedence.
var refBinLevels = [][]struct {
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

func (p *Parser) refParseBinary(level int) (Expr, error) {
	if level >= len(refBinLevels) {
		return p.refParseCastExpr()
	}
	e, err := p.refParseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, cand := range refBinLevels[level] {
			if p.tok.Kind == cand.tok {
				pos := p.tok.Pos
				if err := p.next(); err != nil {
					return nil, err
				}
				r, err := p.refParseBinary(level + 1)
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
func (p *Parser) refParseCastExpr() (Expr, error) {
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
		x, err := p.refParseCastExpr()
		if err != nil {
			return nil, err
		}
		return &Cast{To: t, X: x, Pos: pos}, nil
	}
	return p.refParseUnary()
}

// parseUnary counts one nesting level, which also bounds parentheses,
// subscripts and call arguments: every nested expression reaches its
// primary through here.
func (p *Parser) refParseUnary() (Expr, error) {
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
		x, err := p.refParseUnary()
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
		x, err := p.refParseCastExpr()
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
		x, err := p.refParseUnary()
		if err != nil {
			return nil, err
		}
		return &SizeofExpr{X: x, Pos: pos}, nil
	default:
		return p.refParsePostfix()
	}
}

func (p *Parser) refParsePostfix() (Expr, error) {
	e, err := p.refParsePrimary()
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
			idx, err := p.refParseExpr()
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
				a, err := p.refParseAssignment()
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

func (p *Parser) refParsePrimary() (Expr, error) {
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
		e, err := p.refParseExpr()
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
