package ndlog

// Slot compilation. A rule's variables are numbered once per engine — body
// variables in order of first occurrence over the body atoms in source
// order, assignment targets after them — and a firing carries its bindings
// in a []Value frame indexed by those numbers instead of a map keyed by
// name. Which variables are bound before each body atom is fixed by the
// join plan, and which are bound before each guard by the guard schedule,
// so both are resolved here: an atom becomes bind/check/const/eval
// operations on slots, an expression a tree over slots in which a variable
// that is not bound at that point is the failure Eval reports for it.
//
// Slots hang off the engine, never off the AST: *Rule values are shared
// between engines running concurrently. Rules whose bodies are
// syntactically identical (a delta trigger group) number their body
// variables identically, which is what lets one shared join serve every
// member.

type exprKind uint8

const (
	exprFail exprKind = iota // not bound here, an aggregate outside a head, an unknown node
	exprConst
	exprSlot
	exprBinary
	exprCall
)

// slotExpr is an expression over frame slots.
type slotExpr struct {
	kind exprKind
	op   BinOp      // exprBinary
	slot int        // exprSlot
	val  Value      // exprConst
	fn   string     // exprCall; resolved per call, Funcs may change after NewEngine
	args []slotExpr // exprBinary: left, right; exprCall: the arguments
}

// compileExpr resolves x's variables against the slots bound at the point
// where x will be evaluated.
func compileExpr(x Expr, bound map[string]int) slotExpr {
	switch x := x.(type) {
	case *ConstExpr:
		return slotExpr{kind: exprConst, val: x.Val}
	case *Var:
		if s, ok := bound[x.Name]; ok {
			return slotExpr{kind: exprSlot, slot: s}
		}
	case *Binary:
		return slotExpr{kind: exprBinary, op: x.Op,
			args: []slotExpr{compileExpr(x.L, bound), compileExpr(x.R, bound)}}
	case *Call:
		c := slotExpr{kind: exprCall, fn: x.Fn, args: make([]slotExpr, len(x.Args))}
		for i, a := range x.Args {
			c.args[i] = compileExpr(a, bound)
		}
		return c
	}
	return slotExpr{}
}

// evalSlots evaluates a compiled expression on a frame, in Eval's order
// (left before right, the function looked up before its arguments); ok is
// false exactly where Eval returns an error.
func (e *Engine) evalSlots(x *slotExpr, frame []Value) (Value, bool) {
	switch x.kind {
	case exprConst:
		return x.val, true
	case exprSlot:
		return frame[x.slot], true
	case exprBinary:
		l, ok := e.evalSlots(&x.args[0], frame)
		if !ok {
			return Value{}, false
		}
		r, ok := e.evalSlots(&x.args[1], frame)
		if !ok {
			return Value{}, false
		}
		v, err := applyOp(x.op, l, r)
		return v, err == nil
	case exprCall:
		fn, ok := e.Funcs[x.fn]
		if !ok {
			return Value{}, false
		}
		args := make([]Value, len(x.args))
		for i := range x.args {
			if args[i], ok = e.evalSlots(&x.args[i], frame); !ok {
				return Value{}, false
			}
		}
		v, err := fn(e, args)
		return v, err == nil
	}
	return Value{}, false
}

type opKind uint8

const (
	opBind  opKind = iota // first occurrence of a variable: store the column
	opCheck               // variable bound earlier: the column must equal its slot
	opConst               // constant argument: wildcard-aware match
	opEval                // computed argument: evaluate, then compare
)

// atomOp is one argument of a body atom under a fixed set of bound slots.
type atomOp struct {
	kind opKind
	col  int
	slot int      // opBind, opCheck
	x    slotExpr // opEval; opConst keeps its constant in x.val
}

// atom is a body atom compiled for one position of one (rule, trigger)
// plan. `_` and wildcard constants match anything and compile to nothing.
type atom struct {
	arity int
	ops   []atomOp
}

// compileAtom compiles f against the slots bound before it and adds the
// variables it binds to bound; slotOf numbers the rule's variables.
func compileAtom(f *Functor, bound, slotOf map[string]int) atom {
	a := atom{arity: len(f.Args)}
	for i, arg := range f.Args {
		switch arg := arg.(type) {
		case *Var:
			if arg.Name == "_" {
				continue
			}
			if s, ok := bound[arg.Name]; ok {
				a.ops = append(a.ops, atomOp{kind: opCheck, col: i, slot: s})
				continue
			}
			s := slotOf[arg.Name]
			bound[arg.Name] = s
			a.ops = append(a.ops, atomOp{kind: opBind, col: i, slot: s})
		case *ConstExpr:
			if arg.Val.Kind != KindWild {
				a.ops = append(a.ops, atomOp{kind: opConst, col: i, x: slotExpr{val: arg.Val}})
			}
		default:
			a.ops = append(a.ops, atomOp{kind: opEval, col: i, x: compileExpr(arg, bound)})
		}
	}
	return a
}

// match unifies a tuple with a compiled atom, writing the slots the atom
// owns. A failed match may leave some of them written; they are never read
// before the next successful match overwrites them.
func (e *Engine) match(a *atom, t *Tuple, frame []Value) bool {
	if len(t.Args) != a.arity {
		return false
	}
	for i := range a.ops {
		op := &a.ops[i]
		switch arg := &t.Args[op.col]; op.kind {
		case opBind:
			frame[op.slot] = *arg
		case opCheck:
			if !frame[op.slot].Equal(*arg) {
				return false
			}
		case opConst:
			if !op.x.val.Matches(*arg) {
				return false
			}
		case opEval:
			if v, ok := e.evalSlots(&op.x, frame); !ok || !v.Equal(*arg) {
				return false
			}
		}
	}
	return true
}

// guard is one scheduled guard: an assignment into slot, or (slot < 0) a
// selection compiled as the boolean expression Left Op Right.
type guard struct {
	slot int
	x    slotExpr
}

// compiledRule is a rule in slot form, built once per engine and shared by
// the rule's trigger plans. The guard schedule replays the dependency order
// a run-time fixpoint would find (per round: every ready assignment in
// source order, then every ready selection in source order); readiness is
// static because every body variable is bound once the join completes.
type compiledRule struct {
	rule   *Rule
	names  []string       // slot -> variable
	slotOf map[string]int // variable -> slot; during scheduling, the bound set
	nbody  int            // names[:nbody] are the body variables: what a join binds
	// fast holds the selections hoisted ahead of the schedule: they read
	// only body variables no assignment has overwritten and call nothing,
	// so failing early skips no side effect (f_unique advancing the
	// counter) and needs no private frame.
	fast    []slotExpr
	seq     []guard
	assigns bool // seq writes slots: it runs on a copy of the body slots
	dead    bool // guards can never all become bound: a firing is counted and runs nothing
	head    []slotExpr
	agg     *aggState // non-nil for an aggregate head
	stats   RuleStats
}

// slot returns the variable's slot, numbering it on first use.
func (cr *compiledRule) slot(name string) int {
	s, ok := cr.slotOf[name]
	if !ok {
		s = len(cr.names)
		cr.slotOf[name] = s
		cr.names = append(cr.names, name)
	}
	return s
}

func compileRule(r *Rule) *compiledRule {
	cr := &compiledRule{rule: r, slotOf: make(map[string]int), stats: RuleStats{ID: r.ID}}
	for _, f := range r.Body {
		for _, a := range f.Args {
			if v, ok := a.(*Var); ok && v.Name != "_" {
				cr.slot(v.Name)
			}
		}
	}
	cr.nbody = len(cr.names)
	cr.schedule()
	cr.head = make([]slotExpr, len(r.Head.Args))
	for i, a := range r.Head.Args {
		if ag, ok := a.(*Agg); ok {
			a = &Var{Name: ag.Arg} // aggregate() counts the values of this variable
		}
		cr.head[i] = compileExpr(a, cr.slotOf)
	}
	if hasAgg(r.Head) {
		cr.agg = &aggState{groups: make(map[string]map[string]struct{})}
	}
	return cr
}

// schedule orders the rule's assignments and selections and compiles each
// against the slots bound when it runs.
func (cr *compiledRule) schedule() {
	r := cr.rule
	doneA := make([]bool, len(r.Assigns))
	doneS := make([]bool, len(r.Sels))
	hoist := true // no assignment that calls a function has been scheduled yet
	written := make(map[string]bool)
	for remaining := len(r.Assigns) + len(r.Sels); remaining > 0; {
		progress := false
		for i, a := range r.Assigns {
			if doneA[i] || !varsIn(cr.slotOf, a.Expr) {
				continue
			}
			x := compileExpr(a.Expr, cr.slotOf)
			cr.seq = append(cr.seq, guard{slot: cr.slot(a.Var), x: x})
			cr.assigns = true
			written[a.Var] = true
			hoist = hoist && !exprHasCall(a.Expr)
			doneA[i] = true
			remaining--
			progress = true
		}
		for i, s := range r.Sels {
			if doneS[i] || !varsIn(cr.slotOf, s.Left) || !varsIn(cr.slotOf, s.Right) {
				continue
			}
			sel := &Binary{Op: s.Op, L: s.Left, R: s.Right}
			x := compileExpr(sel, cr.slotOf)
			if hoist && !exprHasCall(sel) && cr.readsJoinOnly(sel, written) {
				cr.fast = append(cr.fast, x)
			} else {
				cr.seq = append(cr.seq, guard{slot: -1, x: x})
			}
			doneS[i] = true
			remaining--
			progress = true
		}
		if !progress {
			cr.dead = true
			return
		}
	}
}

// readsJoinOnly reports whether x reads only values the join bound: body
// variables that no scheduled assignment has overwritten.
func (cr *compiledRule) readsJoinOnly(x Expr, written map[string]bool) bool {
	for _, v := range x.Vars(nil) {
		if s, ok := cr.slotOf[v]; ok && (s >= cr.nbody || written[v]) {
			return false
		}
	}
	return true
}

// varsIn reports whether every free variable of x is bound.
func varsIn(bound map[string]int, x Expr) bool {
	for _, v := range x.Vars(nil) {
		if _, ok := bound[v]; v != "_" && !ok {
			return false
		}
	}
	return true
}

// exprHasCall reports whether evaluating x can invoke a registered
// function — the only evaluation step with a possible side effect.
func exprHasCall(x Expr) bool {
	switch x := x.(type) {
	case *Binary:
		return exprHasCall(x.L) || exprHasCall(x.R)
	case *Call:
		return true
	}
	return false
}

// env materialises the frame as the exported map; every slot is bound by
// the time a rule derives.
func (cr *compiledRule) env(frame []Value) Env {
	env := make(Env, len(cr.names))
	for i, n := range cr.names {
		env[n] = frame[i]
	}
	return env
}

// RuleStats is one rule's share of the engine's counters. A delta group
// join serves every member of its trigger group and is attributed to the
// group's first member.
type RuleStats struct {
	ID          string
	Firings     int64
	Derivations int64
	GroupJoins  int64
}

// RuleStats returns the per-rule counters in program order. They sum to
// Stats.Firings, Stats.Derivations and Stats.GroupJoins.
func (e *Engine) RuleStats() []RuleStats {
	out := make([]RuleStats, len(e.rules))
	for i, cr := range e.rules {
		out[i] = cr.stats
	}
	return out
}

// stack is an engine-owned scratch stack carved in call order: a frame is
// pushed by the join that owns it and popped (top reset to the mark taken
// before the push) when that join returns, so a nested run started by a
// listener carves above the frames still in use. Growing abandons the old
// array to the frames already carved from it; they stay valid.
type stack[T any] struct {
	buf []T
	top int
}

func (s *stack[T]) push(n int) []T {
	if s.top+n > len(s.buf) {
		s.buf = make([]T, 2*(s.top+n)+32)
	}
	f := s.buf[s.top : s.top+n : s.top+n]
	s.top += n
	return f
}
