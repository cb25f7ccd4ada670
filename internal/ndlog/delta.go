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
// tests (differential_test.go, compileprop_test.go) and the scenario-level
// enginediff and deltadiff tests hold the two paths to that contract.

import (
	"fmt"
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

// triggerGroups returns the grouped trigger list for a table, built on first
// use: the rule set is fixed at NewEngine, so a table's groups never change.
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
