package ndlog

// Incremental delta evaluation (the backtesting fast path).
//
// A §4.4 shared-run program contains one rule *group* per original rule:
// the original (masked away from the candidates that touch it) followed by
// its candidate variants. All members of a group share a syntactically
// identical body — candidates edit selections, assignments, and heads, not
// the join structure — so the full-mode trigger loop performs the same
// unification and join once per member, ~64 times per event. Delta mode
// (EvalDelta) instead groups adjacent trigger plans with identical bodies,
// runs the shared join once under the union of the members' tag masks, and
// replays the collected bindings through each member: a per-member firing
// is then a tag-mask intersection plus a fail-fast selection check on the
// shared environment, and only members that pass clone the environment.
//
// Emission order is preserved exactly: groups are contiguous runs of the
// trigger list, members iterate in registration order, and bindings are
// collected in the same depth-first order joinStep enumerates them, so the
// member-major replay produces the full path's derivation sequence
// tuple-for-tuple (stores never mutate during a fire). The differential
// tests in delta_test.go and the scenario-level enginediff tests hold the
// two paths to that contract.
//
// The same file implements the DRed-style incremental program-edit API:
// RetractRule removes a rule and underives its counted derivations,
// AssertRule adds a rule and seeds it from the stored state, so a rule
// edit applies as retract(old) + assert(new) without recomputing the
// shared prefix. Both share the engine's support-counting semantics with
// Delete (cyclic self-support is not broken, aggregate heads are
// rejected), and neither narrows the tag sets of surviving tuples — they
// are for engines running under a uniform tag set, not mid-shared-run.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// EvalMode selects how the engine evaluates rule triggers.
type EvalMode uint8

const (
	// EvalFull (the zero value) fires every trigger plan independently —
	// the reference path the differential tests treat as the oracle.
	EvalFull EvalMode = iota
	// EvalDelta groups trigger plans with identical bodies, runs each
	// group's join once under the union tag mask, and replays the bindings
	// through the members with precompiled guard schedules. Derivations,
	// their order, and all observable behavior are identical to EvalFull;
	// only the amount of repeated work differs.
	EvalDelta
)

// String names the mode for logs and flags.
func (m EvalMode) String() string {
	if m == EvalDelta {
		return "delta"
	}
	return "full"
}

// EvalMode returns the engine's active evaluation mode.
func (e *Engine) EvalMode() EvalMode { return e.mode }

// SetEvalMode switches the engine's evaluation mode. Both modes share the
// same stores and plans, so switching is valid at any point.
func (e *Engine) SetEvalMode(m EvalMode) { e.mode = m }

// triggerGroup is a contiguous run of trigger plans sharing an identical
// body (and therefore an identical compiled join plan).
type triggerGroup struct {
	plans []*rulePlan
	union uint64 // OR of the members' tag masks
}

// planSig canonicalizes the shape the shared join depends on: the trigger
// position plus every body atom's rendering. Equal signatures imply equal
// unification behavior and equal planned steps (planRule is deterministic
// in the body and the engine's table set).
func (p *rulePlan) planSig() string {
	if p.sig == "" {
		var b strings.Builder
		fmt.Fprintf(&b, "%d", p.pred)
		for _, f := range p.rule.Body {
			b.WriteByte('|')
			b.WriteString(f.String())
		}
		p.sig = b.String()
	}
	return p.sig
}

// triggerGroups returns (building lazily) the grouped trigger list for a
// table. AssertRule and RetractRule invalidate the cache.
func (e *Engine) triggerGroups(table string) []*triggerGroup {
	if e.groups == nil {
		e.groups = make(map[string][]*triggerGroup)
	}
	if g, ok := e.groups[table]; ok {
		return g
	}
	var out []*triggerGroup
	var cur *triggerGroup
	curSig := ""
	for _, p := range e.triggers[table] {
		sig := p.planSig()
		if cur == nil || sig != curSig {
			cur = &triggerGroup{}
			curSig = sig
			out = append(out, cur)
		}
		cur.plans = append(cur.plans, p)
		cur.union |= p.rule.TagMask
	}
	e.groups[table] = out
	return out
}

// binding is one complete body match produced by a group's shared join.
type binding struct {
	env  Env
	tags uint64
	rows []*Row
}

// bindingSet pools the per-fire binding collection: the slice of bindings
// plus one arena backing all their row slices. If the arena reallocates
// mid-collection, earlier bindings keep the old backing array — their
// contents are already complete — so carving stays safe.
type bindingSet struct {
	items []binding
	arena []*Row
}

var bindingSetPool = sync.Pool{New: func() any { return new(bindingSet) }}

// fireDelta is fire() under EvalDelta: one shared join per trigger group,
// bindings replayed member-major. See the file comment for the order- and
// count-equivalence argument.
func (e *Engine) fireDelta(row *Row, tags uint64) []workItem {
	// run() copies the returned slice into its queue before the next fire,
	// so the backing array is engine-owned and reused across fires.
	out := e.fireBuf[:0]
	for _, g := range e.triggerGroups(row.Tuple.Table) {
		gt := tags & g.union
		if gt == 0 {
			continue
		}
		p0 := g.plans[0]
		env, ok := e.unify(Env{}, p0.rule.Body[p0.pred], row.Tuple)
		if !ok {
			continue
		}
		e.Stats.GroupJoins++
		bs := bindingSetPool.Get().(*bindingSet)
		bs.items = bs.items[:0]
		bs.arena = bs.arena[:0]
		nbody := len(p0.rule.Body)
		if cap(e.boundBuf) < nbody {
			e.boundBuf = make([]*Row, nbody)
		}
		cur := e.boundBuf[:nbody]
		for i := range cur {
			cur[i] = nil
		}
		cur[p0.pred] = row
		e.collect(p0, 0, env, gt, cur, bs)
		for _, p := range g.plans {
			gp := e.guardPlanFor(p.rule)
			for bi := range bs.items {
				b := &bs.items[bi]
				mt := b.tags & p.rule.TagMask
				if mt == 0 {
					continue
				}
				e.Stats.Firings++
				if gp.err != nil {
					continue // guards can never bind: full mode derives nothing either
				}
				if !e.evalFastSels(gp, b.env) {
					continue
				}
				env2 := b.env
				if gp.clone || len(e.listeners) > 0 {
					env2 = b.env.Clone()
				}
				if !e.runGuardSeq(gp, env2) {
					continue
				}
				if it, derived := e.derive(p.rule, p.pred, env2, mt, b.rows); derived {
					out = append(out, it)
				}
			}
		}
		bindingSetPool.Put(bs)
	}
	e.fireBuf = out
	return out
}

// collect enumerates the group's complete bindings in joinStep's exact
// depth-first order, narrowing tags by each matched row, and appends them
// to the binding set.
func (e *Engine) collect(p *rulePlan, step int, env Env, tags uint64, cur []*Row, bs *bindingSet) {
	if step == len(p.steps) {
		start := len(bs.arena)
		bs.arena = append(bs.arena, cur...)
		bs.items = append(bs.items, binding{
			env: env, tags: tags,
			rows: bs.arena[start : start+len(cur) : start+len(cur)],
		})
		return
	}
	st := &p.steps[step]
	if st.tbl == nil || st.tbl.live == 0 {
		return
	}
	var rows []*Row
	if st.idx != nil && e.strategy == JoinIndexed {
		if hasWildKey(st.key, env) {
			rows = st.tbl.rows
			e.Stats.Scans++
			e.Stats.ScanRows += int64(st.tbl.live)
		} else {
			e.keyBuf = appendStepKey(e.keyBuf[:0], st.key, env)
			rows = st.idx.rowsFor(string(e.keyBuf))
			e.Stats.IndexLookups++
			e.Stats.IndexRows += int64(len(rows))
		}
	} else {
		rows = st.tbl.rows
		e.Stats.Scans++
		e.Stats.ScanRows += int64(st.tbl.live)
	}
	for _, other := range rows {
		if other.gone {
			continue
		}
		jt := tags & other.Tuple.Tags
		if jt == 0 {
			continue
		}
		env2, ok := e.unify(env, st.f, other.Tuple)
		if !ok {
			continue
		}
		cur[st.body] = other
		e.collect(p, step+1, env2, jt, cur, bs)
	}
	cur[st.body] = nil
}

// guardOp is one precompiled guard step: an assignment or a selection.
type guardOp struct {
	assign bool
	idx    int
}

// guardPlan is a rule's precompiled guard schedule. seq replays
// checkGuards' exact evaluation order (per round: every ready assignment in
// source order, then every ready selection in source order), with readiness
// resolved statically — every body-atom variable is bound once the join
// completes, so the runtime fixpoint and its per-op Vars allocations are
// unnecessary. fast holds the selections safe to hoist before the schedule
// and evaluate on the shared, unclonied environment: their variables come
// entirely from body atoms and no function call (the only possible side
// effect, e.g. f_unique advancing the counter) can be skipped or reordered
// by failing early.
type guardPlan struct {
	r     *Rule
	fast  []int
	seq   []guardOp
	clone bool  // rule has assignments: the env mutates, clone before seq
	err   error // guards can never become bound: the rule derives nothing
}

func (e *Engine) guardPlanFor(r *Rule) *guardPlan {
	if gp, ok := e.guardPlans[r]; ok {
		return gp
	}
	gp := buildGuardPlan(r)
	e.guardPlans[r] = gp
	return gp
}

func buildGuardPlan(r *Rule) *guardPlan {
	gp := &guardPlan{r: r, clone: len(r.Assigns) > 0}
	bound := make(map[string]bool)
	for _, f := range r.Body {
		bindAtomVars(bound, f)
	}
	bodyVars := make(map[string]bool, len(bound))
	for v := range bound {
		bodyVars[v] = true
	}
	doneA := make([]bool, len(r.Assigns))
	doneS := make([]bool, len(r.Sels))
	remaining := len(r.Assigns) + len(r.Sels)
	for remaining > 0 {
		progress := false
		for i, a := range r.Assigns {
			if doneA[i] || !varsIn(bound, a.Expr) {
				continue
			}
			gp.seq = append(gp.seq, guardOp{assign: true, idx: i})
			bound[a.Var] = true
			doneA[i] = true
			remaining--
			progress = true
		}
		for i, s := range r.Sels {
			if doneS[i] || !varsIn(bound, s.Left) || !varsIn(bound, s.Right) {
				continue
			}
			gp.seq = append(gp.seq, guardOp{idx: i})
			doneS[i] = true
			remaining--
			progress = true
		}
		if !progress {
			gp.err = fmt.Errorf("ndlog: rule %s: guards never become bound", r.ID)
			return gp
		}
	}
	// Hoist body-only, call-free selections ahead of the schedule, but not
	// past an assignment whose evaluation could have a side effect.
	sawCallAssign := false
	kept := gp.seq[:0]
	for _, op := range gp.seq {
		if op.assign {
			if exprHasCall(r.Assigns[op.idx].Expr) {
				sawCallAssign = true
			}
			kept = append(kept, op)
			continue
		}
		s := r.Sels[op.idx]
		if !sawCallAssign && varsIn(bodyVars, s.Left) && varsIn(bodyVars, s.Right) &&
			!exprHasCall(s.Left) && !exprHasCall(s.Right) {
			gp.fast = append(gp.fast, op.idx)
			continue
		}
		kept = append(kept, op)
	}
	gp.seq = kept
	gp.clone = gp.clone && len(gp.seq) > 0
	return gp
}

// varsIn reports whether every free variable of x is in the bound set.
func varsIn(bound map[string]bool, x Expr) bool {
	for _, v := range x.Vars(nil) {
		if v != "_" && !bound[v] {
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

// evalFastSels runs the hoisted selections read-only on the shared env.
func (e *Engine) evalFastSels(gp *guardPlan, env Env) bool {
	for _, i := range gp.fast {
		s := gp.r.Sels[i]
		l, err := e.Eval(env, s.Left)
		if err != nil {
			return false
		}
		rv, err := e.Eval(env, s.Right)
		if err != nil {
			return false
		}
		res, err := applyOp(s.Op, l, rv)
		if err != nil || !res.IsTrue() {
			return false
		}
	}
	return true
}

// runGuardSeq replays the precompiled schedule; env is the member's own
// clone when the rule assigns.
func (e *Engine) runGuardSeq(gp *guardPlan, env Env) bool {
	for _, op := range gp.seq {
		if op.assign {
			a := gp.r.Assigns[op.idx]
			v, err := e.Eval(env, a.Expr)
			if err != nil {
				return false
			}
			env[a.Var] = v
			continue
		}
		s := gp.r.Sels[op.idx]
		l, err := e.Eval(env, s.Left)
		if err != nil {
			return false
		}
		rv, err := e.Eval(env, s.Right)
		if err != nil {
			return false
		}
		res, err := applyOp(s.Op, l, rv)
		if err != nil || !res.IsTrue() {
			return false
		}
	}
	return true
}

// invalidatePlans drops the caches derived from the trigger list after a
// program edit.
func (e *Engine) invalidatePlans() {
	e.groups = nil
}

// RetractRule removes the identified rule from the program and underives
// every materialized tuple derivation it produced, cascading through the
// support counts (DRed with counted derivations: a tuple that retains
// another live derivation or a base insertion survives, and is counted in
// Stats.RecountedTuples). Event-headed derivations are history — they were
// emitted, not stored — so retraction affects materialized state only.
// Rules with aggregate heads are rejected: aggregation state cannot be
// rolled back incrementally; rebuild the engine instead. The removed rule
// is returned so a caller can re-assert it.
func (e *Engine) RetractRule(id string) (*Rule, error) {
	idx := -1
	for i, r := range e.prog.Rules {
		if r.ID == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("ndlog: RetractRule: no rule %s", id)
	}
	target := e.prog.Rules[idx]
	if hasAgg(target.Head) {
		return nil, fmt.Errorf("ndlog: RetractRule: rule %s aggregates; aggregate state cannot be rolled back incrementally", id)
	}
	e.prog.Rules = append(e.prog.Rules[:idx:idx], e.prog.Rules[idx+1:]...)
	for tbl, plans := range e.triggers {
		kept := plans[:0]
		for _, p := range plans {
			if p.rule != target {
				kept = append(kept, p)
			}
		}
		e.triggers[tbl] = kept
	}
	delete(e.guardPlans, target)
	e.invalidatePlans()

	// Gather the rule's live derivations before touching anything: the
	// cascade compacts row slices, so collection and underivation are two
	// phases. The worklist is preallocated and reused across retractions.
	names := make([]string, 0, len(e.tables))
	for name := range e.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	worklist := e.retractBuf[:0]
	for _, name := range names {
		for _, row := range e.tables[name].rows {
			if row.gone {
				continue
			}
			for _, d := range row.derivs {
				if !d.dead && d.rule == target {
					worklist = append(worklist, d)
				}
			}
		}
	}
	e.retractBuf = worklist[:0]

	e.Tick()
	e.retracting = true
	for _, d := range worklist {
		if d.dead {
			continue // already killed by an earlier cascade
		}
		d.dead = true
		e.Stats.DeltaRetractions++
		if len(e.listeners) > 0 {
			body := make([]Tuple, len(d.body))
			for i, b := range d.body {
				body[i] = b.Tuple
			}
			for _, l := range e.listeners {
				l.OnUnderive(e.now, d.rule, d.head.Tuple, body)
			}
		}
		e.unsupport(d.head)
	}
	e.retracting = false
	return target, nil
}

// AssertRule adds a rule to the running program, compiles its trigger
// plans (backfilling any new hash indexes from the stored rows), and seeds
// it against the existing state: the join is driven from the rule's first
// stored body atom, so every current body combination derives exactly
// once, and the produced heads cascade through the whole program. Rules
// whose body references only event tables produce nothing at assert time —
// they fire on future events. Appearances seeded here are counted in
// Stats.DeltaInserts and returned. Aggregate heads are rejected, mirroring
// RetractRule.
func (e *Engine) AssertRule(r *Rule) ([]Tuple, error) {
	if r.Head == nil || len(r.Body) == 0 {
		return nil, fmt.Errorf("ndlog: AssertRule: missing head or empty body")
	}
	if hasAgg(r.Head) {
		return nil, fmt.Errorf("ndlog: AssertRule: rule %s aggregates; assert it by rebuilding the engine", r.ID)
	}
	if r.TagMask == 0 {
		r.TagMask = AllTags
	}
	if err := e.noteLoc(r.Head); err != nil {
		return nil, err
	}
	for _, b := range r.Body {
		if err := e.noteLoc(b); err != nil {
			return nil, err
		}
	}
	e.prog.Rules = append(e.prog.Rules, r)
	plans := make([]*rulePlan, len(r.Body))
	for i, b := range r.Body {
		plans[i] = e.planRule(r, i)
		e.triggers[b.Table] = append(e.triggers[b.Table], plans[i])
	}
	e.invalidatePlans()

	seed := -1
	for i, b := range r.Body {
		if e.tables[b.Table] != nil {
			seed = i
			break
		}
	}
	if seed < 0 {
		return nil, nil // event-only body: fires on future events
	}
	e.Tick()
	var work []workItem
	for _, row := range e.tables[r.Body[seed].Table].snapshot() {
		rtags := row.Tuple.Tags & r.TagMask
		if rtags == 0 {
			continue
		}
		env, ok := e.unify(Env{}, r.Body[seed], row.Tuple)
		if !ok {
			continue
		}
		bound := make([]*Row, len(r.Body))
		bound[seed] = row
		work = append(work, e.joinStep(plans[seed], 0, env, rtags, bound)...)
	}
	appeared := e.run(work, nil)
	e.Stats.DeltaInserts += int64(len(appeared))
	return appeared, nil
}
