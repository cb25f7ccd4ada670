package ndlog

import (
	"fmt"
	"strings"
)

// BinOp enumerates binary operators usable in expressions and selections.
type BinOp uint8

const (
	OpEq  BinOp = iota // ==
	OpNe               // !=
	OpLt               // <
	OpGt               // >
	OpLe               // <=
	OpGe               // >=
	OpAdd              // +
	OpSub              // -
	OpMul              // *
	OpDiv              // /
	OpAnd              // &&
	OpOr               // ||
)

var opNames = map[BinOp]string{
	OpEq: "==", OpNe: "!=", OpLt: "<", OpGt: ">", OpLe: "<=", OpGe: ">=",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpAnd: "&&", OpOr: "||",
}

// String renders the operator in source syntax.
func (op BinOp) String() string { return opNames[op] }

// IsComparison reports whether the operator yields a boolean.
func (op BinOp) IsComparison() bool { return op <= OpGe }

// prec is how tightly the parser binds the operator: || loosest, then &&,
// the comparisons, + and -, and * and / tightest.
func (op BinOp) prec() int {
	switch op {
	case OpOr:
		return 1
	case OpAnd:
		return 2
	case OpAdd, OpSub:
		return 4
	case OpMul, OpDiv:
		return 5
	}
	return 3
}

// operand renders one side of a binary operation or selection,
// parenthesized where the parser would otherwise group it differently: a
// looser operation on either side, an equally tight one on the right (the
// grammar groups to the left), and a comparison inside a comparison
// (comparisons do not chain).
func operand(e Expr, op BinOp, right bool) string {
	b, ok := e.(*Binary)
	if !ok {
		return e.String()
	}
	if p, q := b.Op.prec(), op.prec(); p < q || p == q && (right || op.IsComparison()) {
		return "(" + b.String() + ")"
	}
	return b.String()
}

// ParseOp parses an operator token; ok is false for unknown text.
func ParseOp(s string) (BinOp, bool) {
	for op, name := range opNames {
		if name == s {
			return op, true
		}
	}
	return 0, false
}

// Expr is an NDlog expression: a variable, a constant, a binary operation,
// a function call, or an aggregate (head position only).
type Expr interface {
	exprNode()
	String() string
	// Clone returns a deep copy so repairs can mutate programs safely.
	Clone() Expr
	// Vars appends the free variables of the expression to dst.
	Vars(dst []string) []string
}

// Var references a rule variable by name.
type Var struct{ Name string }

// ConstExpr is a literal value.
type ConstExpr struct{ Val Value }

// Binary applies Op to L and R.
type Binary struct {
	Op   BinOp
	L, R Expr
}

// Call invokes a registered engine function, e.g. f_unique().
type Call struct {
	Fn   string
	Args []Expr
}

// Agg is an aggregate head expression such as a_count<X>.
type Agg struct {
	Fn  string // "count" is the only aggregate the dialect defines
	Arg string // aggregated variable
}

func (*Var) exprNode()       {}
func (*ConstExpr) exprNode() {}
func (*Binary) exprNode()    {}
func (*Call) exprNode()      {}
func (*Agg) exprNode()       {}

func (e *Var) String() string       { return e.Name }
func (e *ConstExpr) String() string { return e.Val.String() }
func (e *Binary) String() string {
	return fmt.Sprintf("%s %s %s", operand(e.L, e.Op, false), e.Op.String(), operand(e.R, e.Op, true))
}
func (e *Call) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Fn, strings.Join(parts, ", "))
}
func (e *Agg) String() string { return fmt.Sprintf("a_%s<%s>", e.Fn, e.Arg) }

func (e *Var) Clone() Expr       { c := *e; return &c }
func (e *ConstExpr) Clone() Expr { c := *e; return &c }
func (e *Binary) Clone() Expr    { return &Binary{Op: e.Op, L: e.L.Clone(), R: e.R.Clone()} }
func (e *Call) Clone() Expr {
	args := make([]Expr, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.Clone()
	}
	return &Call{Fn: e.Fn, Args: args}
}
func (e *Agg) Clone() Expr { c := *e; return &c }

func (e *Var) Vars(dst []string) []string       { return append(dst, e.Name) }
func (e *ConstExpr) Vars(dst []string) []string { return dst }
func (e *Binary) Vars(dst []string) []string    { return e.R.Vars(e.L.Vars(dst)) }
func (e *Call) Vars(dst []string) []string {
	for _, a := range e.Args {
		dst = a.Vars(dst)
	}
	return dst
}
func (e *Agg) Vars(dst []string) []string { return append(dst, e.Arg) }

// Functor is a predicate occurrence: a table name with argument expressions.
// Body functor arguments are variables or constants; head arguments may be
// any expression. Loc is the index of the location argument (the one written
// with @), or -1 when the functor is location-free.
type Functor struct {
	Table string
	Loc   int
	Args  []Expr
}

// String renders the functor in source syntax.
func (f *Functor) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		s := a.String()
		if i == f.Loc {
			s = "@" + s
		}
		parts[i] = s
	}
	return fmt.Sprintf("%s(%s)", f.Table, strings.Join(parts, ","))
}

// Clone deep-copies the functor.
func (f *Functor) Clone() *Functor {
	args := make([]Expr, len(f.Args))
	for i, a := range f.Args {
		args[i] = a.Clone()
	}
	return &Functor{Table: f.Table, Loc: f.Loc, Args: args}
}

// Selection is a boolean predicate over rule variables, e.g. Swi == 2.
type Selection struct {
	Left  Expr
	Op    BinOp
	Right Expr
}

// String renders the selection in source syntax.
func (s *Selection) String() string {
	return fmt.Sprintf("%s %s %s", operand(s.Left, s.Op, false), s.Op.String(), operand(s.Right, s.Op, true))
}

// Clone deep-copies the selection.
func (s *Selection) Clone() *Selection {
	return &Selection{Left: s.Left.Clone(), Op: s.Op, Right: s.Right.Clone()}
}

// Assignment binds a fresh variable to the value of an expression.
type Assignment struct {
	Var  string
	Expr Expr
}

// String renders the assignment in source syntax.
func (a *Assignment) String() string {
	return fmt.Sprintf("%s := %s", a.Var, a.Expr.String())
}

// Clone deep-copies the assignment.
func (a *Assignment) Clone() *Assignment { return &Assignment{Var: a.Var, Expr: a.Expr.Clone()} }

// Rule is one NDlog rule. Body holds the positive predicates in source
// order; Sels and Assigns hold the selection and assignment predicates.
// TagMask restricts the rule to a subset of backtesting tags (see the
// multi-query optimization of §4.4); the zero value of Rule has TagMask 0,
// so constructors and the parser set it to AllTags.
type Rule struct {
	ID      string
	Head    *Functor
	Body    []*Functor
	Sels    []*Selection
	Assigns []*Assignment
	TagMask uint64
}

// AllTags is the tag mask that matches every backtesting tag.
const AllTags = ^uint64(0)

// String renders the rule in source syntax, terminated by a period.
func (r *Rule) String() string {
	var parts []string
	for _, b := range r.Body {
		parts = append(parts, b.String())
	}
	for _, s := range r.Sels {
		parts = append(parts, s.String())
	}
	for _, a := range r.Assigns {
		parts = append(parts, a.String())
	}
	return fmt.Sprintf("%s %s :- %s.", r.ID, r.Head.String(), strings.Join(parts, ", "))
}

// Clone deep-copies the rule.
func (r *Rule) Clone() *Rule {
	body := make([]*Functor, len(r.Body))
	for i, b := range r.Body {
		body[i] = b.Clone()
	}
	sels := make([]*Selection, len(r.Sels))
	for i, s := range r.Sels {
		sels[i] = s.Clone()
	}
	asg := make([]*Assignment, len(r.Assigns))
	for i, a := range r.Assigns {
		asg[i] = a.Clone()
	}
	return &Rule{ID: r.ID, Head: r.Head.Clone(), Body: body, Sels: sels, Assigns: asg, TagMask: r.TagMask}
}

// TableDecl declares a table's schema: arity, primary-key columns, and
// timeout. Timeout 0 marks a transient event (message) table; a positive
// timeout marks materialized state (the dialect only distinguishes 0 vs 1,
// matching the paper's Message/State split).
type TableDecl struct {
	Name    string
	Arity   int
	Timeout int
	Keys    []int // zero-based argument positions forming the primary key
}

// String renders the declaration as a materialize directive.
func (d *TableDecl) String() string {
	keys := make([]string, len(d.Keys))
	for i, k := range d.Keys {
		keys[i] = fmt.Sprint(k)
	}
	return fmt.Sprintf("materialize(%s, %d, %d, keys(%s)).", d.Name, d.Timeout, d.Arity, strings.Join(keys, ","))
}

// Program is a parsed NDlog program: declarations plus rules.
type Program struct {
	Name  string
	Decls []*TableDecl
	Rules []*Rule
}

// Clone deep-copies the program; repairs patch clones, never originals.
func (p *Program) Clone() *Program {
	q := &Program{Name: p.Name}
	for _, d := range p.Decls {
		dd := *d
		dd.Keys = append([]int(nil), d.Keys...)
		q.Decls = append(q.Decls, &dd)
	}
	for _, r := range p.Rules {
		q.Rules = append(q.Rules, r.Clone())
	}
	return q
}

// Rule returns the rule with the given ID, or nil.
func (p *Program) Rule(id string) *Rule {
	for _, r := range p.Rules {
		if r.ID == id {
			return r
		}
	}
	return nil
}

// Decl returns the declaration for a table, or nil if the table is an
// undeclared (event) table.
func (p *Program) Decl(table string) *TableDecl {
	for _, d := range p.Decls {
		if d.Name == table {
			return d
		}
	}
	return nil
}

// String renders the whole program in parseable source syntax.
func (p *Program) String() string {
	var b strings.Builder
	for _, d := range p.Decls {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// LineCount returns the number of declarations plus rules; the paper's
// program-size experiments (Appendix A) measure programs in lines.
func (p *Program) LineCount() int { return len(p.Decls) + len(p.Rules) }
