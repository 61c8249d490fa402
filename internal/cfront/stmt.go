package cfront

// Statement parsing.

func (p *Parser) parseBlock() (*Block, error) {
	pos := p.tok.Pos
	if _, err := p.expect(LBRACE); err != nil {
		return nil, err
	}
	b := &Block{Pos: pos}
	for p.tok.Kind != RBRACE {
		if p.tok.Kind == EOF {
			return nil, p.errf("unexpected end of file in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Items = append(b.Items, s)
	}
	return b, p.next() // consume }
}

func (p *Parser) parseStmt() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	pos := p.tok.Pos
	switch p.tok.Kind {
	case LBRACE:
		return p.parseBlock()

	case SEMI:
		return &EmptyStmt{Pos: pos}, p.next()

	case kwIf:
		if err := p.next(); err != nil {
			return nil, err
		}
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		var els Stmt
		if p.tok.Kind == kwElse {
			if err := p.next(); err != nil {
				return nil, err
			}
			els, err = p.parseStmt()
			if err != nil {
				return nil, err
			}
		}
		return &IfStmt{Cond: cond, Then: then, Else: els, Pos: pos}, nil

	case kwWhile:
		if err := p.next(); err != nil {
			return nil, err
		}
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body, Pos: pos}, nil

	case kwDo:
		if err := p.next(); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(kwWhile); err != nil {
			return nil, err
		}
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &DoWhileStmt{Body: body, Cond: cond, Pos: pos}, nil

	case kwFor:
		if err := p.next(); err != nil {
			return nil, err
		}
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		var init Stmt
		if p.tok.Kind == SEMI {
			if err := p.next(); err != nil {
				return nil, err
			}
		} else if p.isTypeStart() {
			d, err := p.parseLocalDecl()
			if err != nil {
				return nil, err
			}
			init = d
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			init = &ExprStmt{X: e, Pos: e.ExprPos()}
			if _, err := p.expect(SEMI); err != nil {
				return nil, err
			}
		}
		var cond Expr
		if p.tok.Kind != SEMI {
			var err error
			cond, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		var post Expr
		if p.tok.Kind != RPAREN {
			var err error
			post, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &ForStmt{Init: init, Cond: cond, Post: post, Body: body, Pos: pos}, nil

	case kwReturn:
		if err := p.next(); err != nil {
			return nil, err
		}
		var val Expr
		if p.tok.Kind != SEMI {
			var err error
			val, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &ReturnStmt{Value: val, Pos: pos}, nil

	case kwBreak:
		if err := p.next(); err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &BreakStmt{Pos: pos}, nil

	case kwContinue:
		if err := p.next(); err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &ContinueStmt{Pos: pos}, nil

	case kwGoto:
		if err := p.next(); err != nil {
			return nil, err
		}
		label, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &GotoStmt{Label: label.Text, Pos: pos}, nil

	case kwSwitch:
		if err := p.next(); err != nil {
			return nil, err
		}
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		tag, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &SwitchStmt{Tag: tag, Body: body, Pos: pos}, nil

	case kwCase:
		if err := p.next(); err != nil {
			return nil, err
		}
		val, err := p.parseConditional()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(COLON); err != nil {
			return nil, err
		}
		stmt, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &CaseStmt{Value: val, Stmt: stmt, Pos: pos}, nil

	case kwDefault:
		if err := p.next(); err != nil {
			return nil, err
		}
		if _, err := p.expect(COLON); err != nil {
			return nil, err
		}
		stmt, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &CaseStmt{Stmt: stmt, Pos: pos}, nil

	case IDENT:
		// Could be a label, a typedef-led declaration, or an expression.
		if p.peek().Kind == COLON {
			label := p.tok.Text
			if err := p.next(); err != nil {
				return nil, err
			}
			if err := p.next(); err != nil { // colon
				return nil, err
			}
			stmt, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			return &LabelStmt{Label: label, Stmt: stmt, Pos: pos}, nil
		}
		if p.isTypeStart() {
			return p.parseLocalDecl()
		}
		return p.parseExprStmt()

	default:
		if p.isTypeStart() {
			return p.parseLocalDecl()
		}
		return p.parseExprStmt()
	}
}

func (p *Parser) parseExprStmt() (Stmt, error) {
	pos := p.tok.Pos
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return &ExprStmt{X: e, Pos: pos}, nil
}

// parseLocalDecl parses a declaration inside a block (consuming the
// trailing semicolon) and wraps it in a DeclStmt.
func (p *Parser) parseLocalDecl() (*DeclStmt, error) {
	pos := p.tok.Pos
	ds, err := p.parseDeclSpecs()
	if err != nil {
		return nil, err
	}
	out := &DeclStmt{Pos: pos}
	if p.tok.Kind == SEMI {
		if err := p.next(); err != nil {
			return nil, err
		}
		out.Decls = append(out.Decls, &TagDecl{Type: ds.base, Pos: pos})
		return out, nil
	}
	for {
		name, typ, namePos, err := p.parseDeclarator(ds.base.Clone(), false)
		if err != nil {
			return nil, err
		}
		if name == "" {
			return nil, p.errf("expected declared name")
		}
		if ds.storage == SCTypedef {
			p.typedefs[name] = typ
			out.Decls = append(out.Decls, &TypedefDecl{Name: name, Type: typ, Pos: namePos})
		} else {
			var init Expr
			if p.tok.Kind == ASSIGN {
				if err := p.next(); err != nil {
					return nil, err
				}
				init, err = p.parseInitializer()
				if err != nil {
					return nil, err
				}
			}
			out.Decls = append(out.Decls, &VarDecl{Name: name, Type: typ, Storage: ds.storage, Init: init, Pos: namePos})
		}
		if p.tok.Kind != COMMA {
			break
		}
		if err := p.next(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return out, nil
}
