// Package meta implements the paper's meta model (§3.2): it treats the
// program as just another kind of data. Program-based meta tuples expose
// every syntactic element of an NDlog program (constants, operators,
// predicates, rule heads, assignments) with stable identities, and patches
// (meta-tuple insertions, deletions, and updates) fold program changes back
// into an AST. The meta provenance forest (package metaprov) reasons over
// these tuples; the repair generator emits them as concrete fixes.
//
// Model and Apply are the package's only meta model: hand-written Go over
// the AST, not meta rules. The paper's executable meta models serve as
// test oracles or not at all:
//   - Figure 4's µDlog meta model lives in the tests, where
//     TestPatchMatchesMetaModel encodes generated programs as its meta
//     tuples, edits those tuples, and requires the meta model to derive
//     what ndlog.Engine derives from Apply's patched program.
//   - Appendix B's full-NDlog model (Figure 11, with Table 4's template
//     expansion) is not transcribed. A partial transcription without its
//     head-derivation rule (h2) and multi-predicate join derived no rule's
//     output, so it checked nothing; a complete one would be a second meta
//     model that no repair runs on.
package meta

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ndlog"
)

// ConstRef identifies one constant occurrence inside a rule by a stable
// path: "head/2", "sel/0/L", "sel/0/R", "assign/1", "body/1/0", with
// "/L", "/R", "/a<i>" segments for nested expressions.
type ConstRef struct {
	Rule string
	Path string
	Val  ndlog.Value
}

// String renders the reference, e.g. Const(r7, sel/0/R, 2).
func (c ConstRef) String() string {
	return fmt.Sprintf("Const(%s, %s, %s)", c.Rule, c.Path, c.Val)
}

// OperRef identifies one selection operator occurrence.
type OperRef struct {
	Rule   string
	SelIdx int
	Op     ndlog.BinOp
	Sel    string // rendered selection, for display
}

// String renders the reference, e.g. Oper(r7, 0, ==).
func (o OperRef) String() string {
	return fmt.Sprintf("Oper(%s, %d, %s)", o.Rule, o.SelIdx, o.Op)
}

// PredRef identifies one body predicate occurrence.
type PredRef struct {
	Rule  string
	Idx   int
	Table string
	Args  []string // rendered argument expressions
}

// String renders the reference, e.g. PredFunc(r1, 1, WebLoadBalancer).
func (p PredRef) String() string {
	return fmt.Sprintf("PredFunc(%s, %d, %s)", p.Rule, p.Idx, p.Table)
}

// HeadRef identifies a rule head.
type HeadRef struct {
	Rule  string
	Table string
	Args  []string
}

// String renders the reference.
func (h HeadRef) String() string {
	return fmt.Sprintf("HeadFunc(%s, %s)", h.Rule, h.Table)
}

// AssignRef identifies one assignment occurrence.
type AssignRef struct {
	Rule string
	Idx  int
	Var  string
	Expr string
}

// String renders the reference.
func (a AssignRef) String() string {
	return fmt.Sprintf("Assign(%s, %d, %s)", a.Rule, a.Idx, a.Var)
}

// Model is the program-based meta-tuple view of a program (§3.2): every
// syntactic element, indexed for the exploration and repair passes.
type Model struct {
	Prog    *ndlog.Program
	Consts  []ConstRef
	Opers   []OperRef
	Preds   []PredRef
	Heads   []HeadRef
	Assigns []AssignRef

	derivedTables map[string]bool // tables appearing as some rule head
	invalid       error           // Validate(Prog), established once
}

// NewModel extracts the meta tuples of a program and records whether the
// program is valid, which Model.Apply vouches for on every patch.
func NewModel(prog *ndlog.Program) *Model {
	m := &Model{Prog: prog, derivedTables: make(map[string]bool), invalid: Validate(prog)}
	for _, r := range prog.Rules {
		m.derivedTables[r.Head.Table] = true
		m.Heads = append(m.Heads, HeadRef{Rule: r.ID, Table: r.Head.Table, Args: renderArgs(r.Head.Args)})
		for i, a := range r.Head.Args {
			m.collectConsts(r.ID, "head/"+strconv.Itoa(i), a)
		}
		for i, b := range r.Body {
			m.Preds = append(m.Preds, PredRef{Rule: r.ID, Idx: i, Table: b.Table, Args: renderArgs(b.Args)})
			for j, a := range b.Args {
				m.collectConsts(r.ID, fmt.Sprintf("body/%d/%d", i, j), a)
			}
		}
		for i, s := range r.Sels {
			m.Opers = append(m.Opers, OperRef{Rule: r.ID, SelIdx: i, Op: s.Op, Sel: s.String()})
			m.collectConsts(r.ID, fmt.Sprintf("sel/%d/L", i), s.Left)
			m.collectConsts(r.ID, fmt.Sprintf("sel/%d/R", i), s.Right)
		}
		for i, a := range r.Assigns {
			m.Assigns = append(m.Assigns, AssignRef{Rule: r.ID, Idx: i, Var: a.Var, Expr: a.Expr.String()})
			m.collectConsts(r.ID, "assign/"+strconv.Itoa(i), a.Expr)
		}
	}
	return m
}

func renderArgs(args []ndlog.Expr) []string {
	out := make([]string, len(args))
	for i, a := range args {
		out[i] = a.String()
	}
	return out
}

func (m *Model) collectConsts(rule, path string, e ndlog.Expr) {
	switch e := e.(type) {
	case *ndlog.ConstExpr:
		m.Consts = append(m.Consts, ConstRef{Rule: rule, Path: path, Val: e.Val})
	case *ndlog.Binary:
		m.collectConsts(rule, path+"/L", e.L)
		m.collectConsts(rule, path+"/R", e.R)
	case *ndlog.Call:
		for i, a := range e.Args {
			m.collectConsts(rule, fmt.Sprintf("%s/a%d", path, i), a)
		}
	}
}

// Apply patches the model's program (see the package-level Apply); no
// patch applies to an invalid program.
func (m *Model) Apply(changes []Change) (*Patch, error) {
	if m.invalid != nil {
		return nil, m.invalid
	}
	return Apply(m.Prog, changes)
}

// TupleCount returns the total number of program-based meta tuples, the
// quantity the paper reports per language model.
func (m *Model) TupleCount() int {
	return len(m.Consts) + len(m.Opers) + len(m.Preds) + len(m.Heads) + len(m.Assigns)
}

// IsDerived reports whether any rule derives into the table; base tables
// (never derived) are candidates for manual tuple insertion repairs.
func (m *Model) IsDerived(table string) bool { return m.derivedTables[table] }

// RulesDeriving returns the rules whose head is the given table.
func (m *Model) RulesDeriving(table string) []*ndlog.Rule {
	var out []*ndlog.Rule
	for _, r := range m.Prog.Rules {
		if r.Head.Table == table {
			out = append(out, r)
		}
	}
	return out
}

// ResolveExpr returns the expression at a path within a rule, plus a setter
// that replaces it in the AST. Paths are as produced by NewModel.
func ResolveExpr(r *ndlog.Rule, path string) (ndlog.Expr, func(ndlog.Expr), error) {
	parts := strings.Split(path, "/")
	if len(parts) < 2 {
		return nil, nil, fmt.Errorf("meta: bad path %q", path)
	}
	var root ndlog.Expr
	var set func(ndlog.Expr)
	switch parts[0] {
	case "head":
		i, err := strconv.Atoi(parts[1])
		if err != nil || i < 0 || i >= len(r.Head.Args) {
			return nil, nil, fmt.Errorf("meta: bad head index in %q", path)
		}
		root, set = r.Head.Args[i], func(e ndlog.Expr) { r.Head.Args[i] = e }
		parts = parts[2:]
	case "body":
		if len(parts) < 3 {
			return nil, nil, fmt.Errorf("meta: bad body path %q", path)
		}
		i, err1 := strconv.Atoi(parts[1])
		j, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || i < 0 || i >= len(r.Body) || j < 0 || j >= len(r.Body[i].Args) {
			return nil, nil, fmt.Errorf("meta: bad body index in %q", path)
		}
		b := r.Body[i]
		root, set = b.Args[j], func(e ndlog.Expr) { b.Args[j] = e }
		parts = parts[3:]
	case "sel":
		if len(parts) < 3 {
			return nil, nil, fmt.Errorf("meta: bad sel path %q", path)
		}
		i, err := strconv.Atoi(parts[1])
		if err != nil || i < 0 || i >= len(r.Sels) {
			return nil, nil, fmt.Errorf("meta: bad sel index in %q", path)
		}
		s := r.Sels[i]
		switch parts[2] {
		case "L":
			root, set = s.Left, func(e ndlog.Expr) { s.Left = e }
		case "R":
			root, set = s.Right, func(e ndlog.Expr) { s.Right = e }
		default:
			return nil, nil, fmt.Errorf("meta: bad sel side %q", parts[2])
		}
		parts = parts[3:]
	case "assign":
		i, err := strconv.Atoi(parts[1])
		if err != nil || i < 0 || i >= len(r.Assigns) {
			return nil, nil, fmt.Errorf("meta: bad assign index in %q", path)
		}
		a := r.Assigns[i]
		root, set = a.Expr, func(e ndlog.Expr) { a.Expr = e }
		parts = parts[2:]
	default:
		return nil, nil, fmt.Errorf("meta: bad path root %q", parts[0])
	}
	// Descend nested expression segments.
	for _, seg := range parts {
		switch cur := root.(type) {
		case *ndlog.Binary:
			switch seg {
			case "L":
				root, set = cur.L, func(e ndlog.Expr) { cur.L = e }
			case "R":
				root, set = cur.R, func(e ndlog.Expr) { cur.R = e }
			default:
				return nil, nil, fmt.Errorf("meta: bad binary segment %q in %q", seg, path)
			}
		case *ndlog.Call:
			if !strings.HasPrefix(seg, "a") {
				return nil, nil, fmt.Errorf("meta: bad call segment %q in %q", seg, path)
			}
			i, err := strconv.Atoi(seg[1:])
			if err != nil || i < 0 || i >= len(cur.Args) {
				return nil, nil, fmt.Errorf("meta: bad call index %q in %q", seg, path)
			}
			idx := i
			call := cur
			root, set = call.Args[idx], func(e ndlog.Expr) { call.Args[idx] = e }
		default:
			return nil, nil, fmt.Errorf("meta: cannot descend %q into %T", seg, root)
		}
	}
	return root, set, nil
}
