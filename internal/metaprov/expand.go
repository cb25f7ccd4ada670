package metaprov

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/cost"
	"repro/internal/meta"
	"repro/internal/ndlog"
	"repro/internal/solver"
)

// History supplies the historical tuples recorded at runtime; the
// provenance Recorder satisfies it.
type History interface {
	TuplesOf(table string) []ndlog.Tuple
}

// obKind enumerates the pending-work kinds inside a partial tree.
type obKind uint8

const (
	obGoal   obKind = iota // make a missing tuple appear
	obRule                 // instantiate a rule derivation for a goal
	obPred                 // satisfy one body predicate
	obSel                  // satisfy one selection predicate
	obAssign               // thread one assignment
)

// obligation is one unexpanded vertex plus the context needed to expand
// it. Obligations are immutable once queued: forks of a tree share them,
// and stream workers expand sibling forks concurrently.
type obligation struct {
	kind   obKind
	vertex int32 // ID of the tree vertex the expansion attaches under
	goal   Goal
	rule   *ndlog.Rule
	inst   string
	pred   *ndlog.Functor
	predIx int
	selIx  int
	asgIx  int
	env    map[string]string // rule variable -> solver variable; read-only
	depth  int
	// frozen marks obligations inside a repurposed rule (head change or
	// copy): only the "keep" alternatives are explored, so those repairs
	// do not compound with guard edits.
	frozen bool
}

// Explorer drives the cost-ordered forest search (Fig. 17). MaxDepth
// bounds recursive goal expansion; Cutoff bounds total change cost;
// MaxSteps bounds expansions; MaxCandidates stops early once enough
// repairs are found.
type Explorer struct {
	Model         *meta.Model
	Hist          History
	Solver        *solver.Solver
	MaxDepth      int
	MaxSteps      int
	Cutoff        float64
	MaxCandidates int
	MaxHistTuples int
	// MaxPerStructure caps candidates sharing a change structure (same
	// rules/paths/kinds, different values) — different cited history
	// tuples otherwise yield long runs of same-shape repairs, cf. the
	// Sip<16 / Sip<99 / Sip<2009 variants in Table 6(a).
	MaxPerStructure int
	// Workers sizes the ExploreStream worker pool (0 = GOMAXPROCS).
	Workers int

	// steps counts committed vertex expansions and pruned the forks their
	// pruning verdicts removed; solveNanos accumulates wall time spent in
	// the constraint back-end (the Figure 9a breakdown): pre-fork checks
	// against a pool's bindings, pruning verdicts, propagation as a
	// survivor's constraints are added and extraction solves. All are
	// atomics — stream workers solve concurrently — read via Stats(). The
	// emitter counts what it was offered and why it turned candidates away.
	steps      atomic.Int64
	pruned     atomic.Int64
	solveNanos atomic.Int64
	extracted  atomic.Int64
	duplicates atomic.Int64
	capped     atomic.Int64

	// audit, when set by a test, sees every pruning verdict: the pool it
	// is taken on, the constraints the fork would add, and the verdict —
	// including the citations the pre-fork check would have skipped.
	audit func(p *solver.Pool, added []solver.Constraint, sat bool)
}

// pruner bounds the search a pruning verdict may spend on a pool that
// propagation alone does not decide; extraction uses Explorer.Solver.
var pruner = solver.Solver{MaxBacktracks: 1500}

// Stats is a consistent snapshot of the explorer's search counters.
type Stats struct {
	// Steps counts committed vertex expansions, the Figure 9 metric, and
	// Pruned the forks those expansions did not build because the pruning
	// verdict found their constraints unsatisfiable.
	Steps, Pruned int
	// SolveTime is the accumulated constraint-solving wall time. Under
	// ExploreStream it sums over all workers, including speculative
	// expansions the committed search never used, so it can exceed the
	// stream's wall-clock time.
	SolveTime time.Duration
	// Extracted counts the complete trees committed with a valid repair;
	// DuplicateSignatures of them repeated an earlier candidate's changes
	// and CappedStructures exceeded MaxPerStructure. The rest were emitted.
	// Like Steps and Pruned, all three are exact: any worker count commits
	// the counts of the sequential heap search.
	Extracted, DuplicateSignatures, CappedStructures int
}

// Stats returns a snapshot of the search counters. It is safe to call
// concurrently with a running search.
func (ex *Explorer) Stats() Stats {
	return Stats{
		Steps:     int(ex.steps.Load()),
		Pruned:    int(ex.pruned.Load()),
		SolveTime: time.Duration(ex.solveNanos.Load()),

		Extracted:           int(ex.extracted.Load()),
		DuplicateSignatures: int(ex.duplicates.Load()),
		CappedStructures:    int(ex.capped.Load()),
	}
}

// NewExplorer returns an explorer with the paper-motivated defaults.
func NewExplorer(m *meta.Model, h History) *Explorer {
	return &Explorer{
		Model:           m,
		Hist:            h,
		Solver:          &solver.Solver{MaxBacktracks: 4000},
		MaxDepth:        3,
		MaxSteps:        60000,
		Cutoff:          cost.DefaultCutoff,
		MaxCandidates:   64,
		MaxHistTuples:   16,
		MaxPerStructure: 3,
	}
}

// rootTree wraps a goal into the search's root tree.
func (ex *Explorer) rootTree(goal Goal) *Tree {
	t := &Tree{Pool: solver.NewPool()}
	root := t.attach(-1, VNExist, goal.String())
	t.todos = []*obligation{{kind: obGoal, vertex: root, goal: goal, depth: 0}}
	return t
}

// expandStep performs one QUERY(v) expansion of the tree's head obligation
// and returns the surviving forks. Every fork is charged the step cost
// plus the cost of the change it makes; one that would pass the cutoff, or
// whose constraints contradict the pool, is dropped before it is built.
// The expansion depends only on the tree and the explorer's read-only
// model/history, so stream workers run it speculatively on trees the
// committed search may never reach.
func (ex *Explorer) expandStep(cur *Tree) expansion {
	var x expansion
	if ex.affords(cur, 0) {
		ex.expand(&x, cur, cur.todos[0])
	}
	return x
}

// affords reports whether a fork of t that makes a change of cost c stays
// within the cutoff.
func (ex *Explorer) affords(t *Tree, c float64) bool {
	return t.Cost+c+cost.ExpandStep <= ex.Cutoff
}

// fork forks t for a change of the given kind that adds no constraint, or
// returns nil when the change would take the fork past the cutoff — so it
// is never built.
func (ex *Explorer) fork(t *Tree, change cost.Kind) *Tree {
	if c := cost.Of(change); ex.affords(t, c) {
		return t.forkFor(c)
	}
	return nil
}

// forkWith forks t for a change of cost c, which t must afford, that adds
// cs to the pool. The pruning verdict comes first and is a trial on
// scratch storage: a fork whose constraints contradict the pool is counted
// in x.pruned and never built, and only a survivor gets a cloned pool.
func (ex *Explorer) forkWith(x *expansion, t *Tree, c float64, cs ...solver.Constraint) *Tree {
	if !ex.verdict(t, cs) {
		x.pruned++
		return nil
	}
	n := t.forkFor(c)
	start := time.Now()
	n.Pool.Add(cs...)
	ex.solveNanos.Add(int64(time.Since(start)))
	return n
}

// verdict reports whether t's pool stays satisfiable with cs added, and
// charges the time to constraint solving. t's pool is not written.
func (ex *Explorer) verdict(t *Tree, cs []solver.Constraint) bool {
	start := time.Now()
	ok := pruner.SatWith(t.Pool, cs...)
	ex.solveNanos.Add(int64(time.Since(start)))
	if ex.audit != nil {
		ex.audit(t.Pool, slices.Clone(cs), ok)
	}
	return ok
}

// emitter holds the order-sensitive part of the search state: frontier
// admission numbering, candidate dedup, the per-structure cap, and the
// step/candidate bounds. Exactly one goroutine drives an emitter — the
// stream's commit loop — so candidate order is a pure function of the
// frontier's total order.
type emitter struct {
	ex        *Explorer
	seen      map[string]bool
	structs   map[string]int
	perStruct int
	seq       uint64
}

func (ex *Explorer) newEmitter() *emitter {
	perStruct := ex.MaxPerStructure
	if perStruct <= 0 {
		perStruct = 3
	}
	return &emitter{
		ex:        ex,
		seen:      make(map[string]bool),
		structs:   make(map[string]int),
		perStruct: perStruct,
	}
}

// stamp assigns the tree its frontier admission number. Trees must be
// stamped in commit order — the order the sequential search pushes them.
func (em *emitter) stamp(t *Tree) *Tree {
	t.seq = em.seq
	em.seq++
	return t
}

// searching reports whether the search may continue: the step budget has
// not been exhausted and fewer than MaxCandidates repairs are out.
func (em *emitter) searching(emitted int) bool {
	return int(em.ex.steps.Load()) < em.ex.MaxSteps &&
		(em.ex.MaxCandidates <= 0 || emitted < em.ex.MaxCandidates)
}

// admit applies the §3.5 emission rules to the candidate extracted from
// the complete tree t: signature dedup first (duplicates burn their
// signature either way), then the syntactic validity guard, then the
// per-structure cap. A duplicate is never validated: equal signatures are
// equal changes, and only a valid candidate's signature is on record. Only
// an admitted candidate gets its tree materialised.
func (em *emitter) admit(t *Tree, c *Candidate) bool {
	sig := c.Signature()
	if em.seen[sig] {
		em.ex.extracted.Add(1)
		em.ex.duplicates.Add(1)
		return false
	}
	// Syntactic validity guard (§4.2): the patched program must be valid.
	if _, err := em.ex.Model.Apply(c.Changes); err != nil {
		return false
	}
	em.ex.extracted.Add(1)
	em.seen[sig] = true
	st := c.Structure()
	if em.structs[st] >= em.perStruct {
		em.ex.capped.Add(1)
		return false
	}
	em.structs[st]++
	c.Tree = t.Root()
	return true
}

// expand implements QUERY(v) (§3.5): it adds to x one forked tree per
// individually-sufficient choice for the obligation.
func (ex *Explorer) expand(x *expansion, t *Tree, ob *obligation) {
	switch ob.kind {
	case obGoal:
		ex.expandGoal(x, t, ob)
	case obRule:
		ex.expandRule(x, t, ob)
	case obPred:
		ex.expandPred(x, t, ob)
	case obSel:
		ex.expandSel(x, t, ob)
	case obAssign:
		ex.expandAssign(x, t, ob)
	}
}

// expandGoal forks one tree per rule that could derive the goal's table
// (§3.3), plus repairs that create such a rule when none exists (changing
// another rule's head, or copying a rule with a replaced head — the Q4
// repair class of Table 6(c)), plus a manual base-tuple insertion.
func (ex *Explorer) expandGoal(x *expansion, t *Tree, ob *obligation) {
	for _, r := range ex.Model.RulesDeriving(ob.goal.Table) {
		if len(r.Head.Args) != len(ob.goal.Args) {
			continue
		}
		n := t.forkFor(0)
		v := n.attach(ob.vertex, VNDerive, fmt.Sprintf("%s via %s", ob.goal, r.ID))
		n.todos = append(n.todos, &obligation{
			kind: obRule, vertex: v, goal: ob.goal, rule: r, depth: ob.depth,
		})
		x.kids = append(x.kids, n)
	}
	// No rule derives the goal's table (e.g. the controller never sends
	// PacketOut): repurpose rules deriving other tables, either by
	// changing their head in place or by copying them with a new head.
	if len(ex.Model.RulesDeriving(ob.goal.Table)) == 0 && ob.depth == 0 {
		for _, r := range ex.Model.Prog.Rules {
			if r.Head.Table == ob.goal.Table || len(r.Head.Args) != len(ob.goal.Args) {
				continue
			}
			if hasAggHead(r) {
				continue
			}
			// (a) Change the rule's head table in place.
			if n := ex.fork(t, cost.ChangeVariable); n != nil {
				mod := r.Clone()
				mod.Head.Table = ob.goal.Table
				n.changes = append(n.changes, meta.SetHeadTable{RuleID: r.ID, Old: r.Head.Table, New: ob.goal.Table})
				v := n.attach(ob.vertex, VNMetaExist, fmt.Sprintf("head of %s -> %s", r.ID, ob.goal.Table))
				n.todos = append(n.todos, &obligation{
					kind: obRule, vertex: v, goal: ob.goal, rule: mod, depth: ob.depth, frozen: true,
				})
				x.kids = append(x.kids, n)
			}

			// (b) Copy the rule with the head table replaced.
			if n := ex.fork(t, cost.CopyRule); n != nil {
				cp := r.Clone()
				cp.ID = r.ID + "~" + ob.goal.Table
				cp.Head.Table = ob.goal.Table
				n.changes = append(n.changes, meta.AddRule{Rule: cp})
				v := n.attach(ob.vertex, VNMetaExist, fmt.Sprintf("copy %s with head %s", r.ID, ob.goal.Table))
				n.todos = append(n.todos, &obligation{
					kind: obRule, vertex: v, goal: ob.goal, rule: cp, depth: ob.depth, frozen: true,
				})
				x.kids = append(x.kids, n)
			}
		}
	}
	// Manual insertion of the missing tuple itself. Goal columns that are
	// completely unconstrained become wildcards in the inserted tuple
	// (e.g. a flow entry matching any source).
	c := cost.Of(cost.InsertBaseTuple)
	if !ex.affords(t, c) {
		return
	}
	vars := make([]string, len(ob.goal.Args))
	fixed := make([]*ndlog.Value, len(ob.goal.Args))
	var cs []solver.Constraint
	for i, g := range ob.goal.Args {
		if g.Var != "" && !t.Pool.Mentions(g.Var) {
			w := ndlog.Wild()
			fixed[i] = &w
			continue
		}
		vars[i] = t.varName(fmt.Sprintf("ins.%s.%d", ob.goal.Table, i), len(cs)+1)
		cs = append(cs, solver.Eq(solver.V(vars[i]), g))
	}
	if n := ex.forkWith(x, t, c, cs...); n != nil {
		n.varSeq += len(cs)
		n.pInserts = append(n.pInserts, pendingInsert{Table: ob.goal.Table, Vars: vars, Fixed: fixed})
		n.attach(ob.vertex, VInsertBase, fmt.Sprintf("insert %s", ob.goal))
		x.kids = append(x.kids, n)
	}
}

// expandRule instantiates a rule against the goal: it unifies the head,
// then queues obligations for every body predicate, selection, and
// assignment — the joint, cross-precondition treatment of §3.4.
func (ex *Explorer) expandRule(x *expansion, t *Tree, ob *obligation) {
	v := ob.vertex
	r := ob.rule
	inst := t.instName(r.ID)
	env := instantiate(r, inst)

	// Unify head arguments with the goal terms.
	var (
		cs       []solver.Constraint
		deferred []deferredCheck
	)
	for i, ha := range r.Head.Args {
		gt := ob.goal.Args[i]
		switch a := ha.(type) {
		case *ndlog.Var:
			cs = append(cs, solver.Eq(solver.V(env[a.Name]), gt))
		case *ndlog.ConstExpr:
			cs = append(cs, solver.Eq(solver.C(a.Val), gt))
		case *ndlog.Agg:
			return // cannot target aggregate heads
		default:
			// Computed head argument: defer until grounded.
			deferred = append(deferred, deferredCheck{
				rule: r,
				sel:  &ndlog.Selection{Left: ha, Op: ndlog.OpEq, Right: termExpr(gt)},
				env:  env,
			})
		}
	}
	n := ex.forkWith(x, t, 0, cs...)
	if n == nil {
		return
	}
	n.instSeq++
	n.deferred = append(n.deferred, deferred...)
	for i, b := range r.Body {
		pv := n.attach(v, VNExist, b.String())
		n.todos = append(n.todos, &obligation{
			kind: obPred, vertex: pv, rule: r, inst: inst, pred: b, predIx: i,
			env: env, depth: ob.depth, frozen: ob.frozen,
		})
	}
	for i := range r.Sels {
		svx := n.attach(v, VSelTrue, r.Sels[i].String())
		n.todos = append(n.todos, &obligation{
			kind: obSel, vertex: svx, rule: r, inst: inst, selIx: i,
			env: env, depth: ob.depth, frozen: ob.frozen,
		})
	}
	for i := range r.Assigns {
		av := n.attach(v, VSelTrue, r.Assigns[i].String())
		n.todos = append(n.todos, &obligation{
			kind: obAssign, vertex: av, rule: r, inst: inst, asgIx: i,
			env: env, depth: ob.depth, frozen: ob.frozen,
		})
	}
	x.kids = append(x.kids, n)
}

// expandPred satisfies one body predicate: by citing a historical tuple,
// by recursively deriving it, or by inserting a base tuple.
func (ex *Explorer) expandPred(x *expansion, t *Tree, ob *obligation) {
	f := ob.pred
	hist := ex.Hist.TuplesOf(f.Table)
	limit := ex.MaxHistTuples
	if limit <= 0 {
		limit = 16
	}
	// Only satisfiable citations count toward the limit; this keeps the
	// fan-out focused on tuples consistent with the goal. A tuple is tested
	// against the tree's bindings before its verdict is taken: most of the
	// history contradicts a value the pool has already fixed.
	kept := 0
	var cs []solver.Constraint
	for i := 0; kept < limit; i++ {
		if i = ex.nextCitable(t, ob, hist, i); i == len(hist) {
			break
		}
		cs = citation(cs[:0], ob, hist[i])
		n := ex.forkWith(x, t, 0, cs...)
		if n == nil {
			continue
		}
		kept++
		n.attach(ob.vertex, VExist, hist[i].String())
		x.kids = append(x.kids, n)
	}
	if ex.Model.IsDerived(f.Table) {
		// Recursive sub-goal (bounded).
		if ob.depth < ex.MaxDepth {
			sub := Goal{Table: f.Table}
			ok := true
			for _, a := range f.Args {
				term, tok := argTerm(ob.env, a)
				if !tok {
					ok = false
					break
				}
				sub.Args = append(sub.Args, term)
			}
			if ok {
				n := t.forkFor(0)
				gv := n.attach(ob.vertex, VNExist, sub.String())
				n.todos = append(n.todos, &obligation{kind: obGoal, vertex: gv, goal: sub, depth: ob.depth + 1})
				x.kids = append(x.kids, n)
			}
		}
	} else if kept == 0 {
		// Base table with no usable historical tuple: propose inserting
		// one (Appendix D: "If no such event exists in the original
		// execution, the algorithm will insert a base event").
		terms := make([]solver.Term, len(f.Args))
		for i, a := range f.Args {
			var ok bool
			if terms[i], ok = argTerm(ob.env, a); !ok {
				return
			}
		}
		c := cost.Of(cost.InsertBaseTuple)
		if !ex.affords(t, c) {
			return
		}
		vars := make([]string, len(terms))
		cs := make([]solver.Constraint, len(terms))
		for i, term := range terms {
			vars[i] = t.varName(fmt.Sprintf("ins.%s.%d", f.Table, i), i+1)
			cs[i] = solver.Eq(solver.V(vars[i]), term)
		}
		if n := ex.forkWith(x, t, c, cs...); n != nil {
			n.varSeq += len(vars)
			n.pInserts = append(n.pInserts, pendingInsert{Table: f.Table, Vars: vars})
			n.attach(ob.vertex, VInsertBase, "insert "+f.String())
			x.kids = append(x.kids, n)
		}
	}
}

// nextCitable returns the index of the first tuple at or after i that the
// obligation's predicate could cite, or len(hist): the tuple has the
// predicate's arity, matches its constants, and contradicts no value the
// tree's pool has already bound one of its variables to.
func (ex *Explorer) nextCitable(t *Tree, ob *obligation, hist []ndlog.Tuple, i int) int {
	start := time.Now()
	for i < len(hist) && !ex.citable(t, ob, hist[i]) {
		i++
	}
	ex.solveNanos.Add(int64(time.Since(start)))
	return i
}

func (ex *Explorer) citable(t *Tree, ob *obligation, h ndlog.Tuple) bool {
	args := ob.pred.Args
	if len(h.Args) != len(args) {
		return false
	}
	for i, a := range args {
		switch a := a.(type) {
		case *ndlog.Var:
		case *ndlog.ConstExpr:
			if !a.Val.Matches(h.Args[i]) {
				return false
			}
		default:
			return false
		}
	}
	for i, a := range args {
		v, isVar := a.(*ndlog.Var)
		if !isVar || v.Name == "_" {
			continue
		}
		if val, bound := t.Pool.Value(ob.env[v.Name]); bound && !val.Equal(h.Args[i]) {
			// Under audit, take the verdict anyway so the skipped pool is seen too.
			if ex.audit != nil && ex.verdict(t, citation(nil, ob, h)) {
				panic("metaprov: pre-fork check rejected a satisfiable citation of " + h.String())
			}
			return false
		}
	}
	return true
}

// citation appends to cs the constraints citing a tuple adds: every
// variable of the obligation's predicate equals the tuple's value in its
// column.
func citation(cs []solver.Constraint, ob *obligation, h ndlog.Tuple) []solver.Constraint {
	for i, a := range ob.pred.Args {
		if v, isVar := a.(*ndlog.Var); isVar && v.Name != "_" {
			cs = append(cs, solver.Eq(solver.V(ob.env[v.Name]), solver.C(h.Args[i])))
		}
	}
	return cs
}

// expandSel forks the selection's alternatives: keep it (thread the
// constraint), change a constant, change the operator, or delete it —
// each a meta-tuple change with its §3.5 cost.
func (ex *Explorer) expandSel(x *expansion, t *Tree, ob *obligation) {
	r := ob.rule
	s := r.Sels[ob.selIx]

	// (a) Keep the selection: add it to the pool (or defer).
	lt, lok := argTerm(ob.env, s.Left)
	rt, rok := argTerm(ob.env, s.Right)
	translated := lok && rok
	var n *Tree
	if translated {
		n = ex.forkWith(x, t, 0, solver.Cmp(lt, s.Op, rt))
	} else {
		n = t.forkFor(0)
		n.deferred = append(n.deferred, deferredCheck{rule: r, sel: s, env: ob.env})
	}
	if n != nil {
		n.attach(ob.vertex, VMetaExist, "holds: "+s.String())
		x.kids = append(x.kids, n)
	}

	if ob.frozen || !translated {
		return // frozen or untranslatable: no symbolic repairs here
	}

	// (b) Change a constant on either side.
	if cc := cost.Of(cost.ChangeConstant); ex.affords(t, cc) {
		for _, side := range [2]struct {
			e    ndlog.Expr
			path string
			oth  solver.Term
		}{
			{s.Left, fmt.Sprintf("sel/%d/L", ob.selIx), rt},
			{s.Right, fmt.Sprintf("sel/%d/R", ob.selIx), lt},
		} {
			c, isConst := side.e.(*ndlog.ConstExpr)
			if !isConst {
				continue
			}
			cv := t.varName("const."+ob.inst, 1)
			var l, rr solver.Term
			if side.path[len(side.path)-1] == 'L' {
				l, rr = solver.V(cv), side.oth
			} else {
				l, rr = side.oth, solver.V(cv)
			}
			n := ex.forkWith(x, t, cc, solver.Cmp(l, s.Op, rr), solver.Cmp(solver.V(cv), ndlog.OpNe, solver.C(c.Val)))
			if n == nil {
				continue
			}
			n.varSeq++
			n.pConsts = append(n.pConsts, pendingConst{RuleID: r.ID, Path: side.path, Old: c.Val, Var: cv})
			n.attach(ob.vertex, VNMetaExist, fmt.Sprintf("Const(%s,%s) changed", r.ID, side.path))
			x.kids = append(x.kids, n)
		}
	}

	// (c) Change the operator.
	if oc := cost.Of(cost.ChangeOperator); ex.affords(t, oc) {
		for _, op := range []ndlog.BinOp{ndlog.OpEq, ndlog.OpNe, ndlog.OpLt, ndlog.OpGt, ndlog.OpLe, ndlog.OpGe} {
			if op == s.Op {
				continue
			}
			n := ex.forkWith(x, t, oc, solver.Cmp(lt, op, rt))
			if n == nil {
				continue
			}
			n.changes = append(n.changes, meta.SetOper{RuleID: r.ID, SelIdx: ob.selIx, Old: s.Op, New: op, Sel: s.String()})
			n.attach(ob.vertex, VNMetaExist, fmt.Sprintf("Oper(%s,%d)=%s", r.ID, ob.selIx, op))
			x.kids = append(x.kids, n)
		}
	}

	// (d) Delete the selection.
	if n := ex.fork(t, cost.DeleteSelection); n != nil {
		n.changes = append(n.changes, meta.DropSel{RuleID: r.ID, SelIdx: ob.selIx, Sel: s.String()})
		n.attach(ob.vertex, VNMetaExist, fmt.Sprintf("Sel(%s,%d) deleted", r.ID, ob.selIx))
		x.kids = append(x.kids, n)
	}
}

// expandAssign threads an assignment into the pool, with change
// alternatives for constant right-hand sides (e.g. Prt:=1 → Prt:=2) and
// variable substitutions (e.g. Sip':=* → Sip':=Sip).
func (ex *Explorer) expandAssign(x *expansion, t *Tree, ob *obligation) {
	r := ob.rule
	a := r.Assigns[ob.asgIx]

	// (a) Keep.
	target := solver.V(ob.env[a.Var])
	rhs, ok := argTerm(ob.env, a.Expr)
	var n *Tree
	if ok {
		n = ex.forkWith(x, t, 0, solver.Eq(target, rhs))
	} else {
		n = t.forkFor(0)
		n.deferred = append(n.deferred, deferredCheck{
			rule: r,
			sel:  &ndlog.Selection{Left: &ndlog.Var{Name: a.Var}, Op: ndlog.OpEq, Right: a.Expr},
			env:  ob.env,
		})
	}
	if n != nil {
		n.attach(ob.vertex, VMetaExist, "holds: "+a.String())
		x.kids = append(x.kids, n)
	}

	if ob.frozen {
		return
	}

	// (b) Constant RHS: change the constant.
	if c, isConst := a.Expr.(*ndlog.ConstExpr); isConst {
		if cc := cost.Of(cost.ChangeConstant); ex.affords(t, cc) {
			cv := t.varName("aconst."+ob.inst, 1)
			if n := ex.forkWith(x, t, cc, solver.Eq(target, solver.V(cv)), solver.Cmp(solver.V(cv), ndlog.OpNe, solver.C(c.Val))); n != nil {
				n.varSeq++
				n.pConsts = append(n.pConsts, pendingConst{
					RuleID: r.ID, Path: fmt.Sprintf("assign/%d", ob.asgIx), Old: c.Val, Var: cv,
				})
				n.attach(ob.vertex, VNMetaExist, fmt.Sprintf("Const(%s,assign/%d) changed", r.ID, ob.asgIx))
				x.kids = append(x.kids, n)
			}
		}

		// (c) Substitute a body variable for the constant (Q5's fix).
		for _, bv := range bodyVars(r) {
			if bv != a.Var {
				ex.substitute(x, t, ob, bv)
			}
		}
	}
	// (d) Variable RHS: substitute a different body variable.
	if vexpr, isVar := a.Expr.(*ndlog.Var); isVar {
		for _, bv := range bodyVars(r) {
			if bv != a.Var && bv != vexpr.Name {
				ex.substitute(x, t, ob, bv)
			}
		}
	}
}

// substitute forks the tree with the obligation's assignment reading body
// variable bv instead of its right-hand side, unless that passes the
// cutoff or contradicts the pool.
func (ex *Explorer) substitute(x *expansion, t *Tree, ob *obligation, bv string) {
	r := ob.rule
	a := r.Assigns[ob.asgIx]
	c := cost.Of(cost.ChangeVariable)
	if !ex.affords(t, c) {
		return
	}
	n := ex.forkWith(x, t, c, solver.Eq(solver.V(ob.env[a.Var]), solver.V(ob.env[bv])))
	if n == nil {
		return
	}
	n.changes = append(n.changes, meta.SetExpr{
		RuleID: r.ID, Path: fmt.Sprintf("assign/%d", ob.asgIx),
		Old: a.Expr.String(), New: &ndlog.Var{Name: bv},
	})
	n.attach(ob.vertex, VNMetaExist, fmt.Sprintf("Assign(%s,%d) := %s", r.ID, ob.asgIx, bv))
	x.kids = append(x.kids, n)
}

// hasAggHead reports whether a rule's head contains an aggregate.
func hasAggHead(r *ndlog.Rule) bool {
	for _, a := range r.Head.Args {
		if _, ok := a.(*ndlog.Agg); ok {
			return true
		}
	}
	return false
}

// bodyVars lists the variables bound by a rule's body predicates.
func bodyVars(r *ndlog.Rule) []string {
	var out []string
	seen := make(map[string]bool)
	for _, b := range r.Body {
		for _, a := range b.Args {
			for _, v := range a.Vars(nil) {
				if v != "_" && !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
		}
	}
	return out
}

// instantiate names the solver variable of every variable the rule
// mentions, for one instantiation of the rule. The map is complete when it
// is returned and never written again: the instantiation's obligations and
// deferred checks share it, across forks that stream workers expand
// concurrently.
func instantiate(r *ndlog.Rule, inst string) map[string]string {
	var names []string
	for _, a := range r.Head.Args {
		names = a.Vars(names)
	}
	for _, b := range r.Body {
		for _, a := range b.Args {
			names = a.Vars(names)
		}
	}
	for _, s := range r.Sels {
		names = s.Right.Vars(s.Left.Vars(names))
	}
	for _, a := range r.Assigns {
		names = a.Expr.Vars(append(names, a.Var))
	}
	env := make(map[string]string, len(names))
	for _, name := range names {
		if _, ok := env[name]; !ok {
			env[name] = inst + ":" + name
		}
	}
	return env
}

// argTerm translates a rule expression into a solver term: variables,
// constants, and var±const forms translate exactly; anything else is
// untranslatable (ok=false) and must be deferred.
func argTerm(env map[string]string, e ndlog.Expr) (solver.Term, bool) {
	switch e := e.(type) {
	case *ndlog.Var:
		return solver.V(env[e.Name]), true
	case *ndlog.ConstExpr:
		return solver.C(e.Val), true
	case *ndlog.Binary:
		if e.Op != ndlog.OpAdd && e.Op != ndlog.OpSub {
			return solver.Term{}, false
		}
		v, vok := e.L.(*ndlog.Var)
		c, cok := e.R.(*ndlog.ConstExpr)
		if vok && cok && c.Val.Kind == ndlog.KindInt {
			off := c.Val.Int
			if e.Op == ndlog.OpSub {
				off = -off
			}
			return solver.VOff(env[v.Name], off), true
		}
		return solver.Term{}, false
	}
	return solver.Term{}, false
}

// termExpr renders a solver term back into an AST expression for deferred
// checks (constant terms only; variable terms defer to env lookups).
func termExpr(t solver.Term) ndlog.Expr {
	if t.Var == "" {
		return &ndlog.ConstExpr{Val: t.Val}
	}
	return &ndlog.Var{Name: "?" + t.Var}
}
