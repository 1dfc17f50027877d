package parser

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/predapprox"
)

// Parse parses a full program: zero or more `name := query;` bindings
// followed by a final query (with optional trailing semicolon). Bindings
// wrap the final query in algebra.Let nodes, innermost last.
func Parse(src string) (algebra.Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	type binding struct {
		name string
		def  algebra.Query
	}
	var binds []binding
	var final algebra.Query
	for {
		if p.peek().kind == tokEOF {
			break
		}
		// Lookahead for `ident :=`.
		if p.peek().kind == tokIdent && p.peekAt(1).text == ":=" {
			name := p.next().text
			p.next() // :=
			q, err := p.parseQuery()
			if err != nil {
				return nil, err
			}
			if err := p.expect(";"); err != nil {
				return nil, err
			}
			binds = append(binds, binding{name, q})
			continue
		}
		q, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		final = q
		if p.peek().text == ";" {
			p.next()
		}
		if p.peek().kind != tokEOF {
			return nil, fmt.Errorf("parser: trailing input at %d", p.peek().pos)
		}
		break
	}
	if final == nil {
		return nil, fmt.Errorf("parser: program has no final query")
	}
	for i := len(binds) - 1; i >= 0; i-- {
		final = algebra.Let{Name: binds[i].name, Def: binds[i].def, In: final}
	}
	return final, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) peekAt(n int) token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(text string) error {
	t := p.next()
	if t.text != text {
		return fmt.Errorf("parser: expected %q at %d, got %q", text, t.pos, t.text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.next()
	if t.kind != tokIdent {
		return "", fmt.Errorf("parser: expected identifier at %d, got %q", t.pos, t.text)
	}
	return t.text, nil
}

// parseQuery parses one algebra term.
func (p *parser) parseQuery() (algebra.Query, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("parser: expected query at %d, got %q", t.pos, t.text)
	}
	switch strings.ToLower(t.text) {
	case "select":
		p.next()
		if err := p.expect("["); err != nil {
			return nil, err
		}
		cond, err := p.parseCond()
		if err != nil {
			return nil, err
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		in, err := p.parseParenQuery()
		if err != nil {
			return nil, err
		}
		return algebra.Select{In: in, Pred: cond}, nil

	case "project":
		p.next()
		if err := p.expect("["); err != nil {
			return nil, err
		}
		var targets []expr.Target
		if p.peek().text != "]" {
			for {
				tg, err := p.parseTarget()
				if err != nil {
					return nil, err
				}
				targets = append(targets, tg)
				if p.peek().text != "," {
					break
				}
				p.next()
			}
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		in, err := p.parseParenQuery()
		if err != nil {
			return nil, err
		}
		return algebra.Project{In: in, Targets: targets}, nil

	case "product", "join", "union", "diff":
		op := strings.ToLower(p.next().text)
		if err := p.expect("("); err != nil {
			return nil, err
		}
		l, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		if err := p.expect(","); err != nil {
			return nil, err
		}
		r, err := p.parseQuery()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		switch op {
		case "product":
			return algebra.Product{L: l, R: r}, nil
		case "join":
			return algebra.Join{L: l, R: r}, nil
		case "union":
			return algebra.Union{L: l, R: r}, nil
		default:
			return algebra.DiffC{L: l, R: r}, nil
		}

	case "repairkey":
		p.next()
		if err := p.expect("["); err != nil {
			return nil, err
		}
		key, err := p.parseAttrs("@")
		if err != nil {
			return nil, err
		}
		weight, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		in, err := p.parseParenQuery()
		if err != nil {
			return nil, err
		}
		return algebra.RepairKey{In: in, Key: key, Weight: weight}, nil

	case "conf":
		p.next()
		as := ""
		if p.peek().kind == tokIdent && strings.ToLower(p.peek().text) == "as" {
			p.next()
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			as = name
		}
		in, err := p.parseParenQuery()
		if err != nil {
			return nil, err
		}
		return algebra.Conf{In: in, As: as}, nil

	case "poss", "cert":
		op := strings.ToLower(p.next().text)
		in, err := p.parseParenQuery()
		if err != nil {
			return nil, err
		}
		if op == "poss" {
			return algebra.Poss{In: in}, nil
		}
		return algebra.Cert{In: in}, nil

	case "aselect":
		p.next()
		return p.parseApproxSelect()

	default:
		name := p.next().text
		return algebra.Base{Name: name}, nil
	}
}

// parseAttrs parses a comma-separated, possibly empty attribute list and
// the token end that closes it.
func (p *parser) parseAttrs(end string) ([]string, error) {
	var attrs []string
	if p.peek().text != end {
		for {
			a, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			attrs = append(attrs, a)
			if p.peek().text != "," {
				break
			}
			p.next()
		}
	}
	return attrs, p.expect(end)
}

func (p *parser) parseParenQuery() (algebra.Query, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return q, nil
}

// parseTarget parses `expr as Name` or a bare attribute.
func (p *parser) parseTarget() (expr.Target, error) {
	e, err := p.parseArith()
	if err != nil {
		return expr.Target{}, err
	}
	if p.peek().kind == tokIdent && strings.ToLower(p.peek().text) == "as" {
		p.next()
		name, err := p.expectIdent()
		if err != nil {
			return expr.Target{}, err
		}
		return expr.As(name, e), nil
	}
	if a, ok := e.(expr.Attr); ok {
		return expr.Keep(a.Name), nil
	}
	return expr.Target{}, fmt.Errorf("parser: computed target needs 'as Name' at %d", p.peek().pos)
}

// parseCond parses a Boolean combination of comparisons over attributes.
func (p *parser) parseCond() (expr.Pred, error) { return p.parseOr() }

func (p *parser) parseOr() (expr.Pred, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokIdent && strings.ToLower(p.peek().text) == "or" {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = expr.OrOf(l, r)
	}
	return l, nil
}

func (p *parser) parseAnd() (expr.Pred, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.peek().kind == tokIdent && strings.ToLower(p.peek().text) == "and" {
		p.next()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = expr.AndOf(l, r)
	}
	return l, nil
}

func (p *parser) parseNot() (expr.Pred, error) {
	if p.peek().kind == tokIdent && strings.ToLower(p.peek().text) == "not" {
		p.next()
		k, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return expr.NotOf(k), nil
	}
	if p.peek().text == "(" {
		// Could be a parenthesized condition or a parenthesized arithmetic
		// expression starting a comparison; try condition first.
		save := p.pos
		p.next()
		c, err := p.parseCond()
		if err == nil && p.peek().text == ")" {
			p.next()
			// Must not be followed by a comparison operator (then it was
			// arithmetic).
			if !isCmpTok(p.peek().text) && !isArithTok(p.peek().text) {
				return c, nil
			}
		}
		p.pos = save
	}
	return p.parseCmp()
}

func isCmpTok(t string) bool {
	switch t {
	case "=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func isArithTok(t string) bool {
	switch t {
	case "+", "-", "*", "/":
		return true
	}
	return false
}

func (p *parser) parseCmp() (expr.Pred, error) {
	l, err := p.parseArith()
	if err != nil {
		return nil, err
	}
	opTok := p.next()
	var op expr.CmpOp
	switch opTok.text {
	case "=":
		op = expr.CmpEq
	case "<>":
		op = expr.CmpNe
	case "<":
		op = expr.CmpLt
	case "<=":
		op = expr.CmpLe
	case ">":
		op = expr.CmpGt
	case ">=":
		op = expr.CmpGe
	default:
		return nil, fmt.Errorf("parser: expected comparison at %d, got %q", opTok.pos, opTok.text)
	}
	r, err := p.parseArith()
	if err != nil {
		return nil, err
	}
	return expr.Cmp{Op: op, L: l, R: r}, nil
}

// parseArith parses + and - over terms.
func (p *parser) parseArith() (expr.Expr, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.peek().text == "+" || p.peek().text == "-" {
		op := p.next().text
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		if op == "+" {
			l = expr.Add(l, r)
		} else {
			l = expr.Sub(l, r)
		}
	}
	return l, nil
}

func (p *parser) parseTerm() (expr.Expr, error) {
	l, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for p.peek().text == "*" || p.peek().text == "/" {
		op := p.next().text
		r, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		if op == "*" {
			l = expr.Mul(l, r)
		} else {
			l = expr.Div(l, r)
		}
	}
	return l, nil
}

func (p *parser) parseFactor() (expr.Expr, error) {
	t := p.next()
	switch {
	case t.text == "(":
		e, err := p.parseArith()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.text == "-":
		e, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return expr.Sub(expr.CInt(0), e), nil
	case t.kind == tokNumber:
		if strings.ContainsAny(t.text, ".e") {
			f, _ := strconv.ParseFloat(t.text, 64)
			return expr.CFloat(f), nil
		}
		i, _ := strconv.ParseInt(t.text, 10, 64)
		return expr.CInt(i), nil
	case t.kind == tokString:
		return expr.CStr(t.text), nil
	case t.kind == tokIdent:
		return expr.A(t.text), nil
	default:
		return nil, fmt.Errorf("parser: unexpected token %q at %d", t.text, t.pos)
	}
}

// parseApproxSelect parses aselect[pred over conf[A1,..], conf[..], ...](q).
// The predicate references the confidence values as p1..pk.
func (p *parser) parseApproxSelect() (algebra.Query, error) {
	if err := p.expect("["); err != nil {
		return nil, err
	}
	// The predicate text runs until the keyword 'over'; it is a condition
	// over attributes p1..pk, which predapprox decides as parsed.
	cond, err := p.parseCond()
	if err != nil {
		return nil, err
	}
	kw := p.next()
	if kw.kind != tokIdent || strings.ToLower(kw.text) != "over" {
		return nil, fmt.Errorf("parser: expected 'over' at %d, got %q", kw.pos, kw.text)
	}
	var args []algebra.ConfArg
	for {
		c := p.next()
		if c.kind != tokIdent || strings.ToLower(c.text) != "conf" {
			return nil, fmt.Errorf("parser: expected conf[...] at %d", c.pos)
		}
		if err := p.expect("["); err != nil {
			return nil, err
		}
		attrs, err := p.parseAttrs("]")
		if err != nil {
			return nil, err
		}
		args = append(args, algebra.ConfArg{Attrs: attrs})
		if p.peek().text != "," {
			break
		}
		p.next()
	}
	if err := p.expect("]"); err != nil {
		return nil, err
	}
	in, err := p.parseParenQuery()
	if err != nil {
		return nil, err
	}
	pred, err := predapprox.FromExpr(cond, len(args))
	if err != nil {
		return nil, err
	}
	return algebra.ApproxSelect{In: in, Args: args, Pred: pred}, nil
}
