package ndlog

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses NDlog source into a Program. The name is used in error
// messages and diagnostics only.
func Parse(name, src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{name: name, toks: toks}
	prog := &Program{Name: name}
	for !p.at(tokEOF) {
		if p.atIdent("materialize") {
			d, err := p.parseDecl()
			if err != nil {
				return nil, err
			}
			prog.Decls = append(prog.Decls, d)
			continue
		}
		r, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		prog.Rules = append(prog.Rules, r)
	}
	return prog, nil
}

// MustParse is Parse that panics on error; intended for tests and for
// programs embedded as string constants.
func MustParse(name, src string) *Program {
	p, err := Parse(name, src)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	name string
	toks []token
	pos  int
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.ahead(1) }

// ahead returns the token k past the current one (EOF past the end).
func (p *parser) ahead(k int) token { return p.toks[min(p.pos+k, len(p.toks)-1)] }

func (p *parser) at(kind tokKind) bool { return p.cur().kind == kind }

func (p *parser) atIdent(text string) bool {
	return p.cur().kind == tokIdent && p.cur().text == text
}

func (p *parser) atPunct(text string) bool {
	return p.cur().kind == tokPunct && p.cur().text == text
}

func (p *parser) atOp(text string) bool {
	return p.cur().kind == tokOp && p.cur().text == text
}

func (p *parser) next() token {
	t := p.cur()
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("ndlog: %s: line %d: %s", p.name, t.line, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(text string) error {
	if !p.atPunct(text) {
		return p.errf("expected %q, found %q", text, p.cur().text)
	}
	p.next()
	return nil
}

func (p *parser) expectOp(text string) error {
	if !p.atOp(text) {
		return p.errf("expected %q, found %q", text, p.cur().text)
	}
	p.next()
	return nil
}

// parseDecl parses: materialize(Name, timeout, arity, keys(k0,k1,...)).
func (p *parser) parseDecl() (*TableDecl, error) {
	p.next() // materialize
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if !p.at(tokIdent) {
		return nil, p.errf("expected table name in materialize")
	}
	d := &TableDecl{Name: p.next().text}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	to, err := p.parseInt()
	if err != nil {
		return nil, err
	}
	d.Timeout = int(to)
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	ar, err := p.parseInt()
	if err != nil {
		return nil, err
	}
	d.Arity = int(ar)
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	if !p.atIdent("keys") {
		return nil, p.errf("expected keys(...) in materialize")
	}
	p.next()
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		k, err := p.parseInt()
		if err != nil {
			return nil, err
		}
		d.Keys = append(d.Keys, int(k))
		if p.atPunct(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("."); err != nil {
		return nil, err
	}
	if d.Arity <= 0 {
		return nil, fmt.Errorf("ndlog: %s: table %s: arity must be positive", p.name, d.Name)
	}
	for _, k := range d.Keys {
		if k < 0 || k >= d.Arity {
			return nil, fmt.Errorf("ndlog: %s: table %s: key column %d out of range", p.name, d.Name, k)
		}
	}
	return d, nil
}

func (p *parser) parseInt() (int64, error) {
	neg := false
	if p.atOp("-") {
		neg = true
		p.next()
	}
	if !p.at(tokInt) {
		return 0, p.errf("expected integer, found %q", p.cur().text)
	}
	v, err := strconv.ParseInt(p.next().text, 10, 64)
	if err != nil {
		return 0, err
	}
	if neg {
		v = -v
	}
	return v, nil
}

// parseRule parses: id Head(@L,...) :- term, term, ... .
func (p *parser) parseRule() (*Rule, error) {
	if !p.at(tokIdent) {
		return nil, p.errf("expected rule identifier, found %q", p.cur().text)
	}
	r := &Rule{ID: p.next().text, TagMask: AllTags}
	head, err := p.parseFunctor()
	if err != nil {
		return nil, err
	}
	r.Head = head
	if err := p.expectOp(":-"); err != nil {
		return nil, err
	}
	for {
		if err := p.parseTerm(r); err != nil {
			return nil, err
		}
		if p.atPunct(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct("."); err != nil {
		return nil, err
	}
	return r, nil
}

// parseTerm parses one body term: a predicate functor, a selection, or an
// assignment. Functor-vs-selection is disambiguated by backtracking: a
// parenthesized ident is a functor unless a comparison operator follows it.
func (p *parser) parseTerm(r *Rule) error {
	// Assignment: Ident := Expr
	if p.at(tokIdent) && p.peek().kind == tokOp && p.peek().text == ":=" {
		name := p.next().text
		p.next() // :=
		e, err := p.parseExpr()
		if err != nil {
			return err
		}
		r.Assigns = append(r.Assigns, &Assignment{Var: name, Expr: e})
		return nil
	}
	// Try a functor, falling back to an expression selection.
	if p.at(tokIdent) && p.peek().kind == tokPunct && p.peek().text == "(" {
		save := p.pos
		f, err := p.parseFunctor()
		if err == nil && !p.atComparison() {
			r.Body = append(r.Body, f)
			return nil
		}
		p.pos = save
	}
	e, err := p.parseExpr()
	if err != nil {
		return err
	}
	b, ok := e.(*Binary)
	if !ok || !b.Op.IsComparison() {
		return p.errf("body term must be a predicate, selection, or assignment (got %s)", e.String())
	}
	r.Sels = append(r.Sels, &Selection{Left: b.L, Op: b.Op, Right: b.R})
	return nil
}

func (p *parser) atComparison() bool {
	if p.cur().kind != tokOp {
		return false
	}
	op, ok := ParseOp(p.cur().text)
	return ok && op.IsComparison()
}

// parseFunctor parses: Name(arg, arg, ...), with an optional @ before the
// location argument.
func (p *parser) parseFunctor() (*Functor, error) {
	if !p.at(tokIdent) {
		return nil, p.errf("expected predicate name")
	}
	f := &Functor{Table: p.next().text, Loc: -1}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		if p.atPunct("@") {
			p.next()
			if f.Loc >= 0 {
				return nil, p.errf("duplicate @ location in %s", f.Table)
			}
			f.Loc = len(f.Args)
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Args = append(f.Args, e)
		if p.atPunct(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return f, nil
}

// Expression grammar, loosest to tightest: || , && , comparisons, + -, * /.
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atOp("||") {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.atOp("&&") {
		p.next()
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.atComparison() {
		op, _ := ParseOp(p.next().text)
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &Binary{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for p.atOp("+") || p.atOp("-") {
		op, _ := ParseOp(p.next().text)
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for (p.atOp("*") && !p.mulIsWildcard()) || p.atOp("/") {
		op, _ := ParseOp(p.next().text)
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
	return l, nil
}

// mulIsWildcard reports whether a "*" token at the current position is the
// JID wildcard rather than multiplication: it is a wildcard when no operand
// could follow it (next token closes the context).
func (p *parser) mulIsWildcard() bool {
	n := p.peek()
	return n.kind == tokPunct && (n.text == ")" || n.text == "," || n.text == ".")
}

func (p *parser) parseUnary() (Expr, error) {
	if p.atOp("-") {
		p.next()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if c, ok := e.(*ConstExpr); ok && c.Val.Kind == KindInt {
			return &ConstExpr{Val: Int(-c.Val.Int)}, nil
		}
		return &Binary{Op: OpSub, L: &ConstExpr{Val: Int(0)}, R: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokInt:
		p.next()
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, err
		}
		return &ConstExpr{Val: Int(v)}, nil
	case t.kind == tokString:
		p.next()
		return &ConstExpr{Val: Str(t.text)}, nil
	case t.kind == tokOp && t.text == "*":
		p.next()
		return &ConstExpr{Val: Wild()}, nil
	case t.kind == tokPunct && t.text == "(":
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokIdent:
		switch t.text {
		case "true", "True":
			p.next()
			return &ConstExpr{Val: Bool(true)}, nil
		case "false", "False":
			p.next()
			return &ConstExpr{Val: Bool(false)}, nil
		}
		// Aggregate: a_count<Var>. Anything else is a variable, so that
		// a_x < Y compares.
		if lt, arg, gt := p.ahead(1), p.ahead(2), p.ahead(3); strings.HasPrefix(t.text, "a_") &&
			lt.kind == tokOp && lt.text == "<" && arg.kind == tokIdent && gt.kind == tokOp && gt.text == ">" {
			p.pos += 4
			return &Agg{Fn: strings.TrimPrefix(t.text, "a_"), Arg: arg.text}, nil
		}
		// Function call: f_name(args)
		if p.peek().kind == tokPunct && p.peek().text == "(" {
			p.next() // name
			p.next() // (
			call := &Call{Fn: t.text}
			if !p.atPunct(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if p.atPunct(",") {
						p.next()
						continue
					}
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		p.next()
		return &Var{Name: t.text}, nil
	}
	return nil, p.errf("unexpected token %q in expression", t.text)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
