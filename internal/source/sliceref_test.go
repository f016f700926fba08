package source

import (
	"fmt"
	"strconv"
	"strings"
)

// lexAll returns every token of src, including TokNewline separators
// and ending with TokEOF, or the lexer's first error.
func lexAll(src string) ([]Token, error) {
	lx := NewLexer(src)
	var out []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}

// sliceParser is the parser as it stood before it streamed tokens: it
// lexes the whole text into a slice first, so any lexical error wins
// over any parse error, and then walks the slice. It is kept only as
// the reference that TestStreamingParseMatchesSlice and FuzzParse hold
// Parse to.
type sliceParser struct {
	toks []Token
	pos  int
	// depth is the current recursion depth in MaxNestDepth's units;
	// peak its high-water mark.
	depth, peak int
}

// sliceParse is Parse over a materialised token slice.
func sliceParse(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &sliceParser{toks: toks}
	prog, err := p.parseProgram()
	if err != nil {
		return nil, err
	}
	p.skipNewlines()
	if p.cur().Kind != TokEOF {
		return nil, p.errf("trailing input after end of program")
	}
	return prog, nil
}

func (p *sliceParser) cur() Token  { return p.toks[p.pos] }
func (p *sliceParser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *sliceParser) errf(format string, args ...any) error {
	return fmt.Errorf("%s: %s (near %q)", p.cur().Pos, fmt.Sprintf(format, args...), p.cur().Text)
}

func (p *sliceParser) expect(k TokKind) (Token, error) {
	if p.cur().Kind != k {
		return Token{}, p.errf("expected %s", k)
	}
	return p.next(), nil
}

func (p *sliceParser) accept(k TokKind) bool {
	if p.cur().Kind == k {
		p.next()
		return true
	}
	return false
}

// enter descends one nesting level, failing past MaxNestDepth; every
// successful enter is paired with a leave.
func (p *sliceParser) enter() error {
	if p.depth >= MaxNestDepth {
		return p.errf("nesting deeper than %d levels", MaxNestDepth)
	}
	p.depth++
	p.peak = max(p.peak, p.depth)
	return nil
}

func (p *sliceParser) leave() { p.depth-- }

func (p *sliceParser) skipNewlines() {
	for p.cur().Kind == TokNewline {
		p.next()
	}
}

func (p *sliceParser) expectEOL() error {
	if k := p.cur().Kind; k != TokNewline && k != TokEOF {
		return p.errf("expected end of line")
	}
	p.skipNewlines()
	return nil
}

func (p *sliceParser) parseProgram() (*Program, error) {
	p.skipNewlines()
	prog := &Program{Pos: p.cur().Pos}
	switch p.cur().Kind {
	case TokProgram:
		p.next()
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		prog.Name = name.Text
	case TokSubroutine:
		p.next()
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		prog.Name = name.Text
		if p.accept(TokLParen) {
			for p.cur().Kind != TokRParen {
				arg, err := p.expect(TokIdent)
				if err != nil {
					return nil, err
				}
				prog.Params = append(prog.Params, arg.Text)
				if !p.accept(TokComma) {
					break
				}
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
		}
	default:
		return nil, p.errf("expected program or subroutine")
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}

	// Declaration section: type decls, parameters, directives.
	for {
		p.skipNewlines()
		switch p.cur().Kind {
		case TokInteger, TokRealKw:
			d, err := p.parseDecl()
			if err != nil {
				return nil, err
			}
			prog.Decls = append(prog.Decls, d)
		case TokParameter:
			cs, err := p.parseParameter()
			if err != nil {
				return nil, err
			}
			prog.Consts = append(prog.Consts, cs...)
		case TokDirective:
			d, err := p.parseDirective()
			if err != nil {
				return nil, err
			}
			if d != nil {
				prog.Dists = append(prog.Dists, d)
			}
		default:
			goto body
		}
	}
body:
	stmts, err := p.parseStmts(func(k TokKind) bool { return k == TokEnd })
	if err != nil {
		return nil, err
	}
	prog.Body = stmts
	if _, err := p.expect(TokEnd); err != nil {
		return nil, err
	}
	// Optional "end program name".
	if p.cur().Kind == TokProgram || p.cur().Kind == TokSubroutine {
		p.next()
		p.accept(TokIdent)
	}
	return prog, nil
}

func (p *sliceParser) parseDecl() (*Decl, error) {
	d := &Decl{Pos: p.cur().Pos}
	switch p.next().Kind {
	case TokInteger:
		d.Type = TypeInteger
	case TokRealKw:
		d.Type = TypeReal
	}
	// Optional kind: real*8 — accepted and ignored (all reals are doubles).
	if p.accept(TokStar) {
		if _, err := p.expect(TokInt); err != nil {
			return nil, err
		}
	}
	for {
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		dn := &DeclName{Name: name.Text}
		if p.accept(TokLParen) {
			for {
				dim, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				dn.Dims = append(dn.Dims, dim)
				if !p.accept(TokComma) {
					break
				}
			}
			if _, err := p.expect(TokRParen); err != nil {
				return nil, err
			}
		}
		d.Names = append(d.Names, dn)
		if !p.accept(TokComma) {
			break
		}
	}
	return d, p.expectEOL()
}

func (p *sliceParser) parseParameter() ([]*Const, error) {
	pos := p.cur().Pos
	p.next() // parameter
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	var out []*Const
	for {
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokAssign); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		out = append(out, &Const{Name: name.Text, Value: val, Pos: pos})
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return out, p.expectEOL()
}

// parseDirective parses `distribute a(block, *)` from a TokDirective
// token. Unrecognized directives are ignored.
func (p *sliceParser) parseDirective() (*Distribute, error) {
	tok := p.next()
	body := strings.ToLower(strings.TrimSpace(tok.Text))
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	if !strings.HasPrefix(body, "distribute") {
		return nil, nil
	}
	rest := strings.TrimSpace(body[len("distribute"):])
	open := strings.Index(rest, "(")
	close := strings.LastIndex(rest, ")")
	if open < 1 || close < open {
		return nil, fmt.Errorf("%s: malformed distribute directive %q", tok.Pos, tok.Text)
	}
	d := &Distribute{Array: strings.TrimSpace(rest[:open]), Pos: tok.Pos}
	for _, part := range strings.Split(rest[open+1:close], ",") {
		pat := strings.TrimSpace(part)
		switch pat {
		case "block", "cyclic", "*":
			d.Pattern = append(d.Pattern, pat)
		default:
			return nil, fmt.Errorf("%s: unknown distribution pattern %q", tok.Pos, pat)
		}
	}
	return d, nil
}

// parseStmts parses statements until stop(cur.Kind) is true.
func (p *sliceParser) parseStmts(stop func(TokKind) bool) ([]Stmt, error) {
	var out []Stmt
	for {
		p.skipNewlines()
		k := p.cur().Kind
		if stop(k) || k == TokEOF {
			return out, nil
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			out = append(out, s)
		}
	}
}

func (p *sliceParser) parseStmt() (Stmt, error) {
	switch p.cur().Kind {
	case TokDo:
		return p.parseDo()
	case TokIf:
		return p.parseIf()
	case TokCall:
		return p.parseCall()
	case TokContinue:
		pos := p.next().Pos
		return &ContinueStmt{pos}, p.expectEOL()
	case TokReturn:
		pos := p.next().Pos
		return &ReturnStmt{pos}, p.expectEOL()
	case TokIdent:
		return p.parseAssign()
	case TokDirective:
		p.next() // directives inside bodies are ignored
		return nil, p.expectEOL()
	default:
		return nil, p.errf("expected statement")
	}
}

func (p *sliceParser) parseDo() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	pos := p.next().Pos // do
	v, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	lb, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokComma); err != nil {
		return nil, err
	}
	ub, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	var step Expr
	if p.accept(TokComma) {
		if step, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	body, err := p.parseStmts(func(k TokKind) bool { return k == TokEndDo || k == TokEnd })
	if err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case TokEndDo:
		p.next()
	case TokEnd:
		// "end do" as two tokens.
		p.next()
		if !p.accept(TokDo) {
			return nil, p.errf("expected 'do' after 'end' closing a loop")
		}
	default:
		return nil, p.errf("unterminated do loop")
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	return &DoLoop{Var: v.Text, Lb: lb, Ub: ub, Step: step, Body: body, Pos: pos}, nil
}

func (p *sliceParser) parseIf() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	pos := p.next().Pos // if
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if !p.accept(TokThen) {
		// One-line if.
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &IfStmt{Cond: cond, Then: []Stmt{s}, Pos: pos}, nil
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	isEnd := func(k TokKind) bool {
		return k == TokElse || k == TokElseIf || k == TokEndIf || k == TokEnd
	}
	then, err := p.parseStmts(isEnd)
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Cond: cond, Then: then, Pos: pos}
	switch p.cur().Kind {
	case TokElseIf:
		// else if (…) then …: parse as nested if in the else branch.
		nested, err := p.parseElseIfChain()
		if err != nil {
			return nil, err
		}
		st.Else = []Stmt{nested}
		return st, nil
	case TokElse:
		p.next()
		// Possibly "else if".
		if p.cur().Kind == TokIf {
			nested, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			st.Else = []Stmt{nested}
			return st, nil
		}
		if err := p.expectEOL(); err != nil {
			return nil, err
		}
		els, err := p.parseStmts(func(k TokKind) bool { return k == TokEndIf || k == TokEnd })
		if err != nil {
			return nil, err
		}
		st.Else = els
	}
	switch p.cur().Kind {
	case TokEndIf:
		p.next()
	case TokEnd:
		p.next()
		if !p.accept(TokIf) {
			return nil, p.errf("expected 'if' after 'end' closing a conditional")
		}
	default:
		return nil, p.errf("unterminated if")
	}
	return st, p.expectEOL()
}

// parseElseIfChain handles the `elseif (cond) then` keyword form by
// rewriting it into a nested IfStmt.
func (p *sliceParser) parseElseIfChain() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	p.next() // elseif
	// Reuse parseIf logic by faking: we are at '(' now.
	pos := p.cur().Pos
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokThen); err != nil {
		return nil, err
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	isEnd := func(k TokKind) bool {
		return k == TokElse || k == TokElseIf || k == TokEndIf || k == TokEnd
	}
	then, err := p.parseStmts(isEnd)
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Cond: cond, Then: then, Pos: pos}
	switch p.cur().Kind {
	case TokElseIf:
		nested, err := p.parseElseIfChain()
		if err != nil {
			return nil, err
		}
		st.Else = []Stmt{nested}
		return st, nil
	case TokElse:
		p.next()
		if err := p.expectEOL(); err != nil {
			return nil, err
		}
		els, err := p.parseStmts(func(k TokKind) bool { return k == TokEndIf || k == TokEnd })
		if err != nil {
			return nil, err
		}
		st.Else = els
	}
	switch p.cur().Kind {
	case TokEndIf:
		p.next()
	case TokEnd:
		p.next()
		if !p.accept(TokIf) {
			return nil, p.errf("expected 'if' after 'end'")
		}
	default:
		return nil, p.errf("unterminated elseif")
	}
	return st, p.expectEOL()
}

func (p *sliceParser) parseCall() (Stmt, error) {
	pos := p.next().Pos // call
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	st := &CallStmt{Name: name.Text, Pos: pos}
	if p.accept(TokLParen) {
		for p.cur().Kind != TokRParen {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Args = append(st.Args, a)
			if !p.accept(TokComma) {
				break
			}
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
	}
	return st, p.expectEOL()
}

func (p *sliceParser) parseAssign() (Stmt, error) {
	pos := p.cur().Pos
	lhs, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	switch lhs.(type) {
	case *VarRef, *ArrayRef:
	default:
		return nil, p.errf("invalid assignment target")
	}
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &Assign{LHS: lhs, RHS: rhs, Pos: pos}, p.expectEOL()
}

// Expression grammar (loosest to tightest):
//
//	expr    := orExpr
//	orExpr  := andExpr { .or. andExpr }
//	andExpr := notExpr { .and. notExpr }
//	notExpr := [.not.] relExpr
//	relExpr := addExpr [ relop addExpr ]
//	addExpr := mulExpr { (+|-) mulExpr }
//	mulExpr := unExpr { (*|/) unExpr }
//	unExpr  := [-|+] powExpr
//	powExpr := primary [ ** unExpr ]     (right associative)
func (p *sliceParser) parseExpr() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	return p.parseOr()
}

func (p *sliceParser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokOr {
		pos := p.next().Pos
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Kind: BinOr, L: l, R: r, Pos: pos}
	}
	return l, nil
}

func (p *sliceParser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == TokAnd {
		pos := p.next().Pos
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Kind: BinAnd, L: l, R: r, Pos: pos}
	}
	return l, nil
}

func (p *sliceParser) parseNot() (Expr, error) {
	if p.cur().Kind == TokNot {
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		pos := p.next().Pos
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Neg: false, X: x, Pos: pos}, nil
	}
	return p.parseRel()
}

func (p *sliceParser) parseRel() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if bk, ok := relKinds[p.cur().Kind]; ok {
		pos := p.next().Pos
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &BinExpr{Kind: bk, L: l, R: r, Pos: pos}, nil
	}
	return l, nil
}

func (p *sliceParser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		var bk BinKind
		switch p.cur().Kind {
		case TokPlus:
			bk = BinAdd
		case TokMinus:
			bk = BinSub
		default:
			return l, nil
		}
		pos := p.next().Pos
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Kind: bk, L: l, R: r, Pos: pos}
	}
}

func (p *sliceParser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var bk BinKind
		switch p.cur().Kind {
		case TokStar:
			bk = BinMul
		case TokSlash:
			bk = BinDiv
		default:
			return l, nil
		}
		pos := p.next().Pos
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Kind: bk, L: l, R: r, Pos: pos}
	}
}

func (p *sliceParser) parseUnary() (Expr, error) {
	switch p.cur().Kind {
	case TokMinus, TokPlus:
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
	}
	switch p.cur().Kind {
	case TokMinus:
		pos := p.next().Pos
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Neg: true, X: x, Pos: pos}, nil
	case TokPlus:
		p.next()
		return p.parseUnary()
	}
	return p.parsePow()
}

func (p *sliceParser) parsePow() (Expr, error) {
	base, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind == TokPower {
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		pos := p.next().Pos
		exp, err := p.parseUnary() // right associative, binds unary minus
		if err != nil {
			return nil, err
		}
		return &BinExpr{Kind: BinPow, L: base, R: exp, Pos: pos}, nil
	}
	return base, nil
}

func (p *sliceParser) parsePrimary() (Expr, error) {
	tok := p.cur()
	// The type keyword `real` doubles as the conversion intrinsic in
	// expression context: real(i).
	if tok.Kind == TokRealKw && p.pos+1 < len(p.toks) && p.toks[p.pos+1].Kind == TokLParen {
		tok = Token{Kind: TokIdent, Text: "real", Pos: tok.Pos}
		p.toks[p.pos] = tok
	}
	switch tok.Kind {
	case TokInt:
		p.next()
		v, err := strconv.ParseInt(tok.Text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad integer %q", tok.Pos, tok.Text)
		}
		return &NumLit{Value: float64(v), Pos: tok.Pos}, nil
	case TokReal:
		p.next()
		v, err := strconv.ParseFloat(tok.Text, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad real %q", tok.Pos, tok.Text)
		}
		return &NumLit{Value: v, IsReal: true, Pos: tok.Pos}, nil
	case TokLParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case TokIdent:
		p.next()
		if p.cur().Kind != TokLParen {
			return &VarRef{Name: tok.Text, Pos: tok.Pos}, nil
		}
		p.next() // (
		var args []Expr
		for p.cur().Kind != TokRParen {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if !p.accept(TokComma) {
				break
			}
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		if arity, ok := Intrinsics[tok.Text]; ok {
			if arity >= 0 && len(args) != arity {
				return nil, fmt.Errorf("%s: intrinsic %s expects %d args, got %d", tok.Pos, tok.Text, arity, len(args))
			}
			if arity == -1 && len(args) < 2 {
				return nil, fmt.Errorf("%s: intrinsic %s expects ≥2 args", tok.Pos, tok.Text)
			}
			return &IntrinsicCall{Name: tok.Text, Args: args, Pos: tok.Pos}, nil
		}
		return &ArrayRef{Name: tok.Text, Idx: args, Pos: tok.Pos}, nil
	default:
		return nil, p.errf("expected expression")
	}
}
