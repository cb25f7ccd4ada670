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
// is then a tag-mask intersection plus the member's guard schedule run on
// the shared body slots, and only members that assign copy them.
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
	// through the members. Derivations,
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

// binding is one complete body match produced by a group's shared join:
// the body slots (identical numbering for every member, see compile.go),
// the tags the matched rows left, and the rows by body position. It is
// read-only to the members; a member that assigns copies vals into its own
// frame.
type binding struct {
	vals []Value
	tags uint64
	rows []*Row
}

// bindingSet pools the per-fire binding collection: the slice of bindings
// plus one arena each backing all their slot and row slices. If an arena
// reallocates mid-collection, earlier bindings keep the old backing array —
// their contents are already complete — so carving stays safe.
type bindingSet struct {
	items []binding
	vals  []Value
	rows  []*Row
}

var bindingSetPool = sync.Pool{New: func() any { return new(bindingSet) }}

// add copies a complete match out of the join's frame and row vector.
func (bs *bindingSet) add(frame []Value, tags uint64, bound []*Row) {
	v, r := len(bs.vals), len(bs.rows)
	bs.vals = append(bs.vals, frame...)
	bs.rows = append(bs.rows, bound...)
	bs.items = append(bs.items, binding{
		vals: bs.vals[v:len(bs.vals):len(bs.vals)],
		tags: tags,
		rows: bs.rows[r:len(bs.rows):len(bs.rows)],
	})
}

// fireDelta is fire() under EvalDelta: one shared join per trigger group,
// in joinStep's exact depth-first order, its bindings replayed
// member-major. See the file comment for the order- and count-equivalence
// argument.
func (e *Engine) fireDelta(row *Row, tags uint64, out []workItem) []workItem {
	for _, g := range e.triggerGroups(row.Tuple.Table) {
		gt := tags & g.union
		if gt == 0 {
			continue
		}
		bs := bindingSetPool.Get().(*bindingSet)
		bs.items, bs.vals, bs.rows = bs.items[:0], bs.vals[:0], bs.rows[:0]
		out = e.joinFrom(g.plans[0], row, gt, bs, out)
		for _, p := range g.plans {
			for bi := range bs.items {
				b := &bs.items[bi]
				if mt := b.tags & p.rule.TagMask; mt != 0 {
					out = e.emit(p, b.vals, mt, b.rows, out)
				}
			}
		}
		bindingSetPool.Put(bs)
	}
	return out
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
	for i, cr := range e.rules {
		if cr.rule == target {
			e.rules = append(e.rules[:i:i], e.rules[i+1:]...)
			break
		}
	}
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
		e.notifyUnderive(d)
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
	cr := compileRule(r)
	e.rules = append(e.rules, cr)
	plans := make([]*rulePlan, len(r.Body))
	for i, b := range r.Body {
		plans[i] = e.planRule(cr, i)
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
		if rtags := row.Tuple.Tags & r.TagMask; rtags != 0 {
			work = e.joinFrom(plans[seed], row, rtags, nil, work)
		}
	}
	appeared := e.run(work, nil)
	e.Stats.DeltaInserts += int64(len(appeared))
	return appeared, nil
}
