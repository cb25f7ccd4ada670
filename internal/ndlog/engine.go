package ndlog

import (
	"fmt"
	"strings"
)

// Listener observes engine events; the provenance recorder implements it.
// Implementations must not mutate the tuples they receive. BaseListener
// provides no-op defaults. Listeners are registered before the first insert
// (see Engine.Listen).
type Listener interface {
	// OnInsert fires when a base tuple is inserted (before derivation).
	OnInsert(time int64, t Tuple)
	// OnDelete fires when a base tuple is deleted.
	OnDelete(time int64, t Tuple)
	// OnDerive fires for every rule firing, with the bound environment:
	// every body variable and assignment target of the rule. env is a fresh
	// map per derivation, shared by the listeners of that derivation; it
	// may be retained (the provenance recorder does) but not mutated.
	OnDerive(time int64, rule *Rule, head Tuple, body []Tuple, env Env)
	// OnUnderive fires when a derivation loses support.
	OnUnderive(time int64, rule *Rule, head Tuple, body []Tuple)
	// OnAppear fires when a tuple becomes present (first support).
	OnAppear(time int64, t Tuple)
	// OnDisappear fires when a tuple loses its last support.
	OnDisappear(time int64, t Tuple)
	// OnSend fires when a derived head is routed to a different location.
	OnSend(time int64, from, to Value, t Tuple)
}

// BaseListener is a Listener with no-op methods, for embedding.
type BaseListener struct{}

func (BaseListener) OnInsert(int64, Tuple)                      {}
func (BaseListener) OnDelete(int64, Tuple)                      {}
func (BaseListener) OnDerive(int64, *Rule, Tuple, []Tuple, Env) {}
func (BaseListener) OnUnderive(int64, *Rule, Tuple, []Tuple)    {}
func (BaseListener) OnAppear(int64, Tuple)                      {}
func (BaseListener) OnDisappear(int64, Tuple)                   {}
func (BaseListener) OnSend(int64, Value, Value, Tuple)          {}

// JoinStrategy selects how the engine extends a partial rule binding across
// the remaining body atoms.
type JoinStrategy uint8

const (
	// JoinIndexed (the default) runs the compile-time plan: body atoms in
	// bound-variable-coverage order, each extension answered from a hash
	// index when the plan bound any of the atom's columns.
	JoinIndexed JoinStrategy = iota
	// JoinScan runs the same plan but answers every extension with a full
	// sequential scan in insertion order. Because index buckets preserve
	// insertion order, JoinScan is event-for-event identical to JoinIndexed
	// — it is the differential oracle proving the indexes prune nothing.
	JoinScan
)

// defaultJoinStrategy is the strategy NewEngine gives new engines. Only
// tests change it (export_test.go), between pipeline runs.
var defaultJoinStrategy = JoinIndexed

// EngineStats counts engine work for the evaluation experiments.
type EngineStats struct {
	Firings     int64
	Derivations int64
	Inserts     int64
	Deletes     int64
	Sends       int64
	// IndexLookups counts join extensions answered from a hash index, and
	// IndexRows the rows those lookups yielded.
	IndexLookups int64
	IndexRows    int64
	// Scans counts join extensions that fell back to a full table scan
	// (unplanned columns or a non-indexed strategy), and ScanRows the rows
	// those scans visited.
	Scans    int64
	ScanRows int64
	// DeltaInserts is always zero: nothing sets it. The field stays because
	// benchmark/inproc.go, which is frozen, reads it; it leaves with the
	// benchmark's re-baseline (ROADMAP item 1).
	DeltaInserts int64
	// GroupJoins counts shared joins performed by delta-grouped
	// evaluation; each one serves every member of its trigger group, so
	// 1 - GroupJoins/Firings is the delta hit rate — the fraction of rule
	// firings answered from an already-computed binding set instead of a
	// fresh join.
	GroupJoins int64
}

// Add accumulates counters from another snapshot; the backtest layer uses
// it to roll per-batch engine stats into a per-job report.
func (s *EngineStats) Add(o EngineStats) {
	s.Firings += o.Firings
	s.Derivations += o.Derivations
	s.Inserts += o.Inserts
	s.Deletes += o.Deletes
	s.Sends += o.Sends
	s.IndexLookups += o.IndexLookups
	s.IndexRows += o.IndexRows
	s.Scans += o.Scans
	s.ScanRows += o.ScanRows
	s.GroupJoins += o.GroupJoins
}

// aggState holds per-rule aggregation state: distinct aggregated values per
// group, where the group is the tuple of non-aggregate head arguments.
type aggState struct {
	groups map[string]map[string]struct{}
}

// Engine evaluates an NDlog program bottom-up with semi-naive firing over
// indexed table stores and compile-time join plans (see plan.go and
// storage.go). The engine is single-goroutine; callers requiring
// concurrency run one engine per goroutine (programs and tuples are never
// shared mutably).
type Engine struct {
	prog     *Program
	decls    map[string]*TableDecl
	locIdx   map[string]int
	tables   map[string]*table
	triggers map[string][]*rulePlan
	rules    []*compiledRule // slot form of prog.Rules, in program order
	Funcs    map[string]Func

	strategy  JoinStrategy
	mode      EvalMode
	listeners []Listener
	fresh     int64
	now       int64

	keyBuf   []byte // scratch for join-step index keys
	groupBuf []byte // scratch for aggregate group keys

	// frames holds the slot frames of the joins in progress and rows their
	// positional body-row vectors (see compile.go); a join pops what it
	// pushed, so both are empty between top-level calls.
	frames stack[Value]
	rows   stack[*Row]

	// groups caches the contiguous same-body trigger groups per table for
	// delta evaluation (see delta.go).
	groups map[string][]*triggerGroup

	// workBuf backs run's fixpoint queue between calls; running guards the
	// reuse against re-entrant runs (a listener inserting tuples). seedBuf
	// is Insert's one-item work list. evRow is the row an engine without
	// listeners matches each event from: nothing keeps an event's row past
	// its fire, and without listeners no run re-enters.
	workBuf []workItem
	seedBuf [1]workItem
	running bool
	evRow   Row

	// Stats counts engine work for the evaluation experiments.
	Stats EngineStats
}

// NewEngine compiles a program into an engine: it validates that every
// table is used with a consistent arity and location position, creates the
// indexed store for each materialized table, compiles every rule into slot
// form and a join plan (and the hash indexes it needs) for every rule ×
// trigger-predicate pair.
func NewEngine(prog *Program) (*Engine, error) {
	e := &Engine{
		prog:     prog,
		decls:    make(map[string]*TableDecl),
		locIdx:   make(map[string]int),
		tables:   make(map[string]*table),
		triggers: make(map[string][]*rulePlan),
		Funcs:    make(map[string]Func),
		strategy: defaultJoinStrategy,
	}
	RegisterBuiltins(e)
	for _, d := range prog.Decls {
		if _, dup := e.decls[d.Name]; dup {
			return nil, fmt.Errorf("ndlog: duplicate declaration for table %s", d.Name)
		}
		e.decls[d.Name] = d
		if d.Timeout != 0 {
			e.tables[d.Name] = newTable(d.Name, d.Keys)
		}
	}
	for _, r := range prog.Rules {
		if r.Head == nil || len(r.Body) == 0 {
			return nil, fmt.Errorf("ndlog: rule %s: missing head or empty body", r.ID)
		}
		if err := e.noteLoc(r.Head); err != nil {
			return nil, err
		}
		cr := compileRule(r)
		e.rules = append(e.rules, cr)
		for i, b := range r.Body {
			if err := e.noteLoc(b); err != nil {
				return nil, err
			}
			e.triggers[b.Table] = append(e.triggers[b.Table], e.planRule(cr, i))
		}
	}
	return e, nil
}

// MustNewEngine is NewEngine that panics on error.
func MustNewEngine(prog *Program) *Engine {
	e, err := NewEngine(prog)
	if err != nil {
		panic(err)
	}
	return e
}

func hasAgg(f *Functor) bool {
	for _, a := range f.Args {
		if _, ok := a.(*Agg); ok {
			return true
		}
	}
	return false
}

func (e *Engine) noteLoc(f *Functor) error {
	if f.Loc < 0 {
		return nil
	}
	if prev, ok := e.locIdx[f.Table]; ok {
		if prev != f.Loc {
			return fmt.Errorf("ndlog: table %s used with inconsistent location positions %d and %d", f.Table, prev, f.Loc)
		}
		return nil
	}
	e.locIdx[f.Table] = f.Loc
	return nil
}

// Program returns the compiled program.
func (e *Engine) Program() *Program { return e.prog }

// Listen registers a listener. Listeners are registered before the first
// insert: an engine nobody listens to keeps no event tuple and records of a
// derivation only the stored rows that can retract it, so a listener that
// joined later would be told of underivations with rows missing. Listen
// panics once the engine's clock has ticked.
func (e *Engine) Listen(l Listener) {
	if e.now != 0 {
		panic("ndlog: Engine.Listen after an insert or delete: listeners are registered before the first insert")
	}
	e.listeners = append(e.listeners, l)
}

// BorrowsArgs reports whether Insert only borrows the Args of a tuple of
// the table for the call, so that the caller may overwrite them for its
// next insert: the table is an event and no listener is registered. A
// stored row owns its Args, and listeners keep the tuples they are shown.
func (e *Engine) BorrowsArgs(table string) bool {
	return len(e.listeners) == 0 && e.isEvent(table)
}

// JoinStrategy returns the engine's active join strategy.
func (e *Engine) JoinStrategy() JoinStrategy { return e.strategy }

// SetJoinStrategy switches the engine's join strategy. All strategies share
// the same stores and plans, so switching is valid at any point; it exists
// for the differential tests and the engine benchmarks.
func (e *Engine) SetJoinStrategy(s JoinStrategy) { e.strategy = s }

// Now returns the engine's logical clock.
func (e *Engine) Now() int64 { return e.now }

// Tick advances the logical clock and returns the new time.
func (e *Engine) Tick() int64 { e.now++; return e.now }

// Fresh returns a unique integer (the f_unique() builtin).
func (e *Engine) Fresh() int64 { e.fresh++; return e.fresh }

// LocIndex returns the location-argument index for a table (default 0).
func (e *Engine) LocIndex(table string) int {
	if i, ok := e.locIdx[table]; ok {
		return i
	}
	return 0
}

// isEvent reports whether the table is transient (timeout 0 / undeclared).
func (e *Engine) isEvent(table string) bool {
	d, ok := e.decls[table]
	return !ok || d.Timeout == 0
}

// keysOf returns the primary-key columns for a table (nil = all columns).
func (e *Engine) keysOf(table string) []int {
	if d, ok := e.decls[table]; ok {
		return d.Keys
	}
	return nil
}

// workItem is a pending insertion flowing through the fixpoint.
type workItem struct {
	tuple Tuple
	base  bool
	via   *derivation // nil for base insertions
}

// Insert inserts a base tuple (event or state) and runs the fixpoint,
// returning every tuple that appeared during this round (including the
// inserted one and all derived heads, events included).
func (e *Engine) Insert(t Tuple) []Tuple { return e.InsertInto(t, nil) }

// InsertInto is Insert appending the appearances to buf, so a caller in a
// tight loop (the controller's PacketIn path) can reuse one buffer. The
// returned slice is valid until the caller's next InsertInto with the same
// buffer.
func (e *Engine) InsertInto(t Tuple, buf []Tuple) []Tuple {
	e.Tick()
	e.Stats.Inserts++
	if t.Tags == 0 {
		t.Tags = AllTags
	}
	if len(e.listeners) > 0 {
		t.Key() // intern once; every listener copy inherits the cache
		for _, l := range e.listeners {
			l.OnInsert(e.now, t)
		}
	}
	if e.running {
		// Re-entrant insert (a listener): don't touch the seed scratch.
		return e.run([]workItem{{tuple: t, base: true}}, buf)
	}
	e.seedBuf[0] = workItem{tuple: t, base: true}
	return e.run(e.seedBuf[:], buf)
}

// Delete removes one base support from a state tuple and propagates
// underivations. Deleting an absent tuple is a no-op.
func (e *Engine) Delete(t Tuple) {
	e.Tick()
	tbl := e.tables[t.Table]
	if tbl == nil {
		return
	}
	row, ok := tbl.lookup(t.PrimaryKey(e.keysOf(t.Table)))
	if !ok || !row.Base {
		return
	}
	e.Stats.Deletes++
	for _, l := range e.listeners {
		l.OnDelete(e.now, row.Tuple)
	}
	row.Base = false
	e.unsupport(row)
}

// unsupport decrements a row's support and cascades when it reaches zero.
func (e *Engine) unsupport(row *Row) {
	row.Support--
	if row.Support > 0 {
		return
	}
	if tbl := e.tables[row.Tuple.Table]; tbl != nil {
		tbl.remove(row)
	}
	for _, l := range e.listeners {
		l.OnDisappear(e.now, row.Tuple)
	}
	for _, d := range row.usedBy {
		if d.dead {
			continue
		}
		d.dead = true
		e.notifyUnderive(d)
		e.unsupport(d.head)
	}
	row.usedBy = nil
}

// notifyUnderive reports a killed derivation to the listeners.
func (e *Engine) notifyUnderive(d *derivation) {
	if len(e.listeners) == 0 {
		return
	}
	body := make([]Tuple, len(d.body))
	for i, b := range d.body {
		body[i] = b.Tuple
	}
	for _, l := range e.listeners {
		l.OnUnderive(e.now, d.rule, d.head.Tuple, body)
	}
}

// run drives the semi-naive fixpoint over the work list.
func (e *Engine) run(work []workItem, appeared []Tuple) []Tuple {
	// The queue is drained by index rather than re-slicing so the backing
	// array keeps its full capacity; it is retained on the engine between
	// runs, which removes the dominant steady-state allocation of replay.
	q := work
	reuse := !e.running
	if reuse {
		e.running = true
		q = append(e.workBuf[:0], work...)
	}
	for head := 0; head < len(q); head++ {
		item := q[head]
		t := item.tuple

		var row *Row
		fireTags := t.Tags
		if e.isEvent(t.Table) {
			// An event is never stored and derive records no derivation
			// into one, so its row lives as long as its fire — unless a
			// listener is told of it again when a derivation it fed dies.
			row = &e.evRow
			if len(e.listeners) > 0 {
				t.Key()
				row = new(Row)
			}
			*row = Row{Tuple: t, Support: 1}
			appeared = append(appeared, t)
			for _, l := range e.listeners {
				l.OnAppear(e.now, t)
			}
		} else {
			tbl := e.tables[t.Table]
			key := t.PrimaryKey(tbl.keyCols)
			if exist, ok := tbl.lookup(key); ok {
				if exist.Tuple.Equal(t) {
					// Same fact: add support; fire only for new tags.
					exist.Support++
					if item.base {
						exist.Base = true
					}
					if item.via != nil {
						item.via.head = exist
						for _, b := range item.via.body {
							b.usedBy = append(b.usedBy, item.via)
						}
					}
					fireTags = t.Tags &^ exist.Tuple.Tags
					exist.Tuple.Tags |= t.Tags
					if fireTags == 0 {
						continue
					}
					// The fact is new for these tags: report it so
					// listeners and callers (e.g. the controller) see the
					// tag expansion, and fire rules for the delta only.
					// A shallow copy keeps the interned keys; stored
					// argument slices are immutable by contract.
					nt := exist.Tuple
					nt.Tags = fireTags
					appeared = append(appeared, nt)
					for _, l := range e.listeners {
						l.OnAppear(e.now, nt)
					}
					row = exist
				} else {
					// Primary-key replacement: retract old fact first.
					exist.Base = false
					exist.Support = 1
					e.unsupport(exist)
					row = e.storeNew(tbl, t, item)
					appeared = append(appeared, t)
				}
			} else {
				row = e.storeNew(tbl, t, item)
				appeared = append(appeared, t)
			}
		}
		q = e.fire(row, fireTags, q)
	}
	if reuse {
		e.workBuf = q[:0]
		e.running = false
	}
	return appeared
}

func (e *Engine) storeNew(tbl *table, t Tuple, item workItem) *Row {
	if len(e.listeners) > 0 {
		t.Key()
	}
	row := &Row{Tuple: t, Support: 1, Base: item.base}
	if item.via != nil {
		item.via.head = row
		for _, b := range item.via.body {
			b.usedBy = append(b.usedBy, item.via)
		}
	}
	tbl.insert(row)
	for _, l := range e.listeners {
		l.OnAppear(e.now, t)
	}
	return row
}

// fire evaluates every rule triggered by the new row, restricted to tags,
// appending the derived heads to out. Each trigger plan matches the row
// into a fresh slot frame and extends it along the plan; bound is
// positional: bound[i] is the row matched to body atom i.
func (e *Engine) fire(row *Row, tags uint64, out []workItem) []workItem {
	if e.mode == EvalDelta {
		return e.fireDelta(row, tags, out)
	}
	for _, p := range e.triggers[row.Tuple.Table] {
		rtags := tags & p.rule.TagMask
		if rtags == 0 {
			continue
		}
		out = e.joinFrom(p, row, rtags, nil, out)
	}
	return out
}

// joinFrom runs plan p's join from one row of its trigger atom. With a
// binding set the complete matches are collected there (a delta group's
// shared join); without one each match fires p's rule.
func (e *Engine) joinFrom(p *rulePlan, row *Row, tags uint64, bs *bindingSet, out []workItem) []workItem {
	fm, rm := e.frames.top, e.rows.top
	frame := e.frames.push(p.cr.nbody)
	if e.match(&p.trig, &row.Tuple, frame) {
		if bs != nil {
			e.Stats.GroupJoins++
			p.cr.stats.GroupJoins++
		}
		bound := e.rows.push(len(p.rule.Body))
		bound[p.pred] = row
		out = e.joinStep(p, 0, frame, tags, bound, bs, out)
	}
	e.frames.top, e.rows.top = fm, rm
	return out
}

// joinStep extends the partial binding along the compiled plan: each step
// answers from its hash index when the plan bound columns (JoinIndexed), or
// from a sequential scan in the same insertion order (JoinScan). A step
// owns the slots its atom binds: the next row overwrites them, so
// backtracking copies nothing. Tags narrow by each matched row.
func (e *Engine) joinStep(p *rulePlan, step int, frame []Value, tags uint64, bound []*Row, bs *bindingSet, out []workItem) []workItem {
	if step == len(p.steps) {
		if bs != nil {
			bs.add(frame, tags, bound)
			return out
		}
		return e.emit(p, frame, tags, bound, out)
	}
	st := &p.steps[step]
	if st.tbl == nil || st.tbl.live == 0 {
		return out
	}
	rows := st.tbl.rows
	if st.idx != nil && e.strategy == JoinIndexed && !hasWildKey(st.key, frame) {
		e.keyBuf = appendStepKey(e.keyBuf[:0], st.key, frame)
		rows = st.idx.rowsFor(string(e.keyBuf))
		e.Stats.IndexLookups++
		e.Stats.IndexRows += int64(len(rows))
	} else {
		// No planned columns, the scan oracle, or a bound variable carrying
		// a wildcard (it matches only stored wildcards, which live outside
		// the buckets): scan.
		e.Stats.Scans++
		e.Stats.ScanRows += int64(st.tbl.live)
	}
	for _, other := range rows {
		if other.gone {
			continue
		}
		jt := tags & other.Tuple.Tags
		if jt == 0 || !e.match(&st.atom, &other.Tuple, frame) {
			continue
		}
		bound[st.body] = other
		out = e.joinStep(p, step+1, frame, jt, bound, bs, out)
	}
	bound[st.body] = nil
	return out
}

// hasWildKey reports whether any planned key variable is bound to a
// wildcard value in the frame.
func hasWildKey(key []keyCol, frame []Value) bool {
	for _, kc := range key {
		if kc.varName != "" && frame[kc.slot].Kind == KindWild {
			return true
		}
	}
	return false
}

// emit is one rule firing on a complete body match: it counts the firing,
// runs the rule's guard schedule and derives the head. body holds the body
// slots (the join's frame, or a delta binding's copy of it) and is left
// untouched — a rule that assigns runs on its own frame, since the join
// backtracks over body and a delta binding serves other members. bound is
// positional over the rule body with every position filled.
func (e *Engine) emit(p *rulePlan, body []Value, tags uint64, bound []*Row, out []workItem) []workItem {
	cr := p.cr
	e.Stats.Firings++
	cr.stats.Firings++
	if cr.dead {
		return out
	}
	for i := range cr.fast {
		if v, ok := e.evalSlots(&cr.fast[i], body); !ok || !v.IsTrue() {
			return out
		}
	}
	if !cr.assigns {
		return e.finish(p, body, tags, bound, out)
	}
	mark := e.frames.top
	frame := e.frames.push(len(cr.names))
	copy(frame, body[:cr.nbody])
	out = e.finish(p, frame, tags, bound, out)
	e.frames.top = mark
	return out
}

// finish runs the scheduled guards on the firing's frame and derives.
func (e *Engine) finish(p *rulePlan, frame []Value, tags uint64, bound []*Row, out []workItem) []workItem {
	cr := p.cr
	for i := range cr.seq {
		g := &cr.seq[i]
		v, ok := e.evalSlots(&g.x, frame)
		if !ok {
			return out
		}
		if g.slot >= 0 {
			frame[g.slot] = v
		} else if !v.IsTrue() {
			return out
		}
	}
	if it, derived := e.derive(p, frame, tags, bound); derived {
		out = append(out, it)
	}
	return out
}

// derive produces the head for a firing whose guards passed. The Env map
// listeners receive is built here, once per derivation, and only when a
// listener is registered.
func (e *Engine) derive(p *rulePlan, frame []Value, tags uint64, bound []*Row) (workItem, bool) {
	r, cr := p.rule, p.cr
	var head Tuple
	if cr.agg != nil {
		var ok bool
		head, ok = e.aggregate(cr, frame)
		if !ok {
			return workItem{}, false
		}
	} else {
		head = Tuple{Table: r.Head.Table, Args: make([]Value, len(cr.head))}
		for i := range cr.head {
			v, ok := e.evalSlots(&cr.head[i], frame)
			if !ok {
				return workItem{}, false
			}
			head.Args[i] = v
		}
	}
	head.Tags = tags
	e.Stats.Derivations++
	cr.stats.Derivations++

	// Body rows in the seed's reporting order: the trigger first, then the
	// remaining atoms in source order — provenance shape is independent of
	// the planned join order. A listener is shown every row; without one
	// only the rows that can retract the head are kept (p.quietRows), which
	// leaves out an event trigger: the engine's scratch row.
	listened := len(e.listeners) > 0
	keep := len(bound)
	if !listened {
		keep = p.quietRows
	}
	var ordered []*Row
	if keep > 0 {
		ordered = make([]*Row, 0, keep)
		if keep == len(bound) {
			ordered = append(ordered, bound[p.pred])
		}
		for i, b := range bound {
			if i != p.pred {
				ordered = append(ordered, b)
			}
		}
	}
	if listened {
		head.Key()
		bodyTuples := make([]Tuple, len(ordered))
		for i, b := range ordered {
			bodyTuples[i] = b.Tuple
		}
		env := cr.env(frame)
		for _, l := range e.listeners {
			l.OnDerive(e.now, r, head, bodyTuples, env)
		}
	}
	// Cross-node routing: if the head's location differs from the trigger
	// body tuple's location, record a send.
	if r.Head.Loc >= 0 {
		from := e.locationOf(bound[p.pred].Tuple)
		to := head.Args[r.Head.Loc]
		if from.Kind != KindWild && !from.Equal(to) {
			e.Stats.Sends++
			for _, l := range e.listeners {
				l.OnSend(e.now, from, to, head)
			}
		}
	}
	// A derivation exists to be retracted through its body rows' usedBy:
	// into an event head, or with no body row kept, none is needed.
	if p.headEvent || keep == 0 {
		return workItem{tuple: head}, true
	}
	return workItem{tuple: head, via: &derivation{rule: r, body: ordered}}, true
}

// aggregate updates the rule's aggregation state and produces the head with
// the aggregate argument replaced by the current distinct count. Group keys
// use the shared length-prefixed value encoding, so string values
// containing the old separator can no longer merge distinct groups.
func (e *Engine) aggregate(cr *compiledRule, frame []Value) (Tuple, bool) {
	r, st := cr.rule, cr.agg
	groupVals := make([]Value, 0, len(cr.head))
	aggIdx := -1
	var aggVal Value
	for i, a := range r.Head.Args {
		v, ok := e.evalSlots(&cr.head[i], frame)
		if !ok {
			return Tuple{}, false
		}
		if _, isAgg := a.(*Agg); isAgg {
			aggIdx, aggVal = i, v
			v = Value{} // placeholder
		}
		groupVals = append(groupVals, v)
	}
	e.groupBuf = e.groupBuf[:0]
	for i, v := range groupVals {
		if i == aggIdx {
			continue
		}
		e.groupBuf = v.AppendKey(e.groupBuf)
	}
	set := st.groups[string(e.groupBuf)]
	if set == nil {
		set = make(map[string]struct{})
		st.groups[string(e.groupBuf)] = set
	}
	set[aggVal.Key()] = struct{}{}
	groupVals[aggIdx] = Int(int64(len(set)))
	return Tuple{Table: r.Head.Table, Args: groupVals}, true
}

// locationOf returns the location value of a tuple.
func (e *Engine) locationOf(t Tuple) Value {
	i := e.LocIndex(t.Table)
	if i < len(t.Args) {
		return t.Args[i]
	}
	return Wild()
}

// Rows returns a snapshot of all stored rows of a table, in deterministic
// insertion order.
func (e *Engine) Rows(table string) []Tuple {
	tbl := e.tables[table]
	if tbl == nil {
		return nil
	}
	out := make([]Tuple, 0, tbl.live)
	for _, r := range tbl.rows {
		if !r.gone {
			out = append(out, r.Tuple)
		}
	}
	return out
}

// Count returns the number of stored tuples in a table.
func (e *Engine) Count(table string) int {
	if tbl := e.tables[table]; tbl != nil {
		return tbl.live
	}
	return 0
}

// RegisterBuiltins installs the dialect's built-in functions on an engine:
// f_unique, f_match, f_join, f_concat, f_hash, f_max, f_min.
func RegisterBuiltins(e *Engine) {
	e.Funcs["f_unique"] = func(e *Engine, _ []Value) (Value, error) {
		return Int(e.Fresh()), nil
	}
	e.Funcs["f_match"] = func(_ *Engine, args []Value) (Value, error) {
		if len(args) != 2 {
			return Value{}, fmt.Errorf("f_match: want 2 args, got %d", len(args))
		}
		return Bool(args[0].Matches(args[1])), nil
	}
	e.Funcs["f_join"] = func(_ *Engine, args []Value) (Value, error) {
		if len(args) != 2 {
			return Value{}, fmt.Errorf("f_join: want 2 args, got %d", len(args))
		}
		if args[1].Kind == KindWild {
			return args[0], nil
		}
		return args[1], nil
	}
	e.Funcs["f_concat"] = func(_ *Engine, args []Value) (Value, error) {
		var b strings.Builder
		for _, a := range args {
			if a.Kind == KindString {
				b.WriteString(a.Str)
			} else {
				b.WriteString(a.String())
			}
		}
		return Str(b.String()), nil
	}
	e.Funcs["f_hash"] = func(_ *Engine, args []Value) (Value, error) {
		var h uint64 = 1469598103934665603 // FNV-1a offset basis
		var buf []byte
		for _, a := range args {
			buf = a.AppendKey(buf[:0])
			for _, b := range buf {
				h ^= uint64(b)
				h *= 1099511628211
			}
		}
		return Int(int64(h & 0x7fffffffffffffff)), nil
	}
	e.Funcs["f_max"] = func(_ *Engine, args []Value) (Value, error) {
		if len(args) == 0 {
			return Value{}, fmt.Errorf("f_max: no arguments")
		}
		best := args[0]
		for _, a := range args[1:] {
			if a.Compare(best) > 0 {
				best = a
			}
		}
		return best, nil
	}
	e.Funcs["f_min"] = func(_ *Engine, args []Value) (Value, error) {
		if len(args) == 0 {
			return Value{}, fmt.Errorf("f_min: no arguments")
		}
		best := args[0]
		for _, a := range args[1:] {
			if a.Compare(best) < 0 {
				best = a
			}
		}
		return best, nil
	}
}
