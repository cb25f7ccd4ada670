// Package solver implements the constraint back-end for meta provenance
// (§3.4 and §5.1 of the paper). Constraint pools are conjunctions of
// comparisons between tuple attributes (variables) and constants, plus
// primary-key implications. The paper put a "mini-solver" for trivial pools
// in front of Z3; here the pool itself is that mini-solver. A Pool is an
// incremental store: Add propagates unconditional equalities into a small
// binding table as constraints arrive and latches the first conflict, Clone
// shares the constraint list with its parent, and the forest search reads
// satisfiability off the propagated state. Only the variables propagation
// leaves free go to a bounded backtracking search over candidate values.
//
// The forest search asks far more often whether a fork would survive than
// it builds one, so a verdict is a trial: SatWith decides "p plus cs" on a
// pool made of scratch buffers, leaving p untouched, and the search behind
// every verdict runs on scratch too. Those buffers are reused across calls
// and goroutines, so a verdict allocates nothing; only Solve and
// SolveNegation build an Assignment.
package solver

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/ndlog"
)

// Term is one side of a constraint: either a variable (possibly with an
// integer offset, e.g. X+1) or a constant value.
type Term struct {
	Var string      // variable name; empty for constants
	Val ndlog.Value // constant value when Var == ""
	Off int64       // integer offset added to the variable's value
}

// V returns a variable term.
func V(name string) Term { return Term{Var: name} }

// VOff returns a variable-plus-offset term.
func VOff(name string, off int64) Term { return Term{Var: name, Off: off} }

// C returns a constant term.
func C(v ndlog.Value) Term { return Term{Val: v} }

// CInt returns an integer constant term.
func CInt(n int64) Term { return Term{Val: ndlog.Int(n)} }

// String renders the term.
func (t Term) String() string {
	if t.Var == "" {
		return t.Val.String()
	}
	if t.Off == 0 {
		return t.Var
	}
	return fmt.Sprintf("%s%+d", t.Var, t.Off)
}

// Constraint is a comparison between two terms, optionally guarded by a
// condition (Cond ⇒ L Op R), which encodes the paper's primary-key
// consistency implications. Hard constraints must hold in every assignment,
// including negated ones; soft constraints are the derivation conditions
// that SolveNegation is allowed to violate.
type Constraint struct {
	Op   ndlog.BinOp
	L, R Term
	Cond []Constraint
	Hard bool
}

// Eq builds L == R.
func Eq(l, r Term) Constraint { return Constraint{Op: ndlog.OpEq, L: l, R: r} }

// Cmp builds L op R.
func Cmp(l Term, op ndlog.BinOp, r Term) Constraint { return Constraint{Op: op, L: l, R: r} }

// String renders the constraint.
func (c Constraint) String() string {
	s := fmt.Sprintf("%s %s %s", c.L, c.Op, c.R)
	if len(c.Cond) > 0 {
		var conds []string
		for _, cc := range c.Cond {
			conds = append(conds, cc.String())
		}
		s = fmt.Sprintf("(%s) => %s", strings.Join(conds, " && "), s)
	}
	if c.Hard {
		s += " [hard]"
	}
	return s
}

// Negate returns the logical negation of the comparison.
func (c Constraint) Negate() Constraint {
	n := c
	switch c.Op {
	case ndlog.OpEq:
		n.Op = ndlog.OpNe
	case ndlog.OpNe:
		n.Op = ndlog.OpEq
	case ndlog.OpLt:
		n.Op = ndlog.OpGe
	case ndlog.OpGe:
		n.Op = ndlog.OpLt
	case ndlog.OpGt:
		n.Op = ndlog.OpLe
	case ndlog.OpLe:
		n.Op = ndlog.OpGt
	}
	return n
}

// Assignment maps variable names to concrete values.
type Assignment map[string]ndlog.Value

// node is one link of a pool's constraint list. A node never changes once
// linked, so a pool and all its clones share the links they have in common.
type node struct {
	prev *node
	c    Constraint
}

// slot is one row of a binding table: a variable some constraint mentions
// and, once propagation has grounded it, its value.
type slot struct {
	name  string
	val   ndlog.Value
	bound bool
}

// table is a binding table. Pools mention a dozen or so variables, so a
// linear scan over names beats hashing them.
type table []slot

func (tb table) find(name string) int {
	for i := range tb {
		if tb[i].name == name {
			return i
		}
	}
	return -1
}

// resolve returns the term's value under the table, or ok=false when its
// variable is unbound or carries an offset on a non-integer.
func (tb table) resolve(t Term) (ndlog.Value, bool) {
	if t.Var == "" {
		return t.Val, true
	}
	i := tb.find(t.Var)
	if i < 0 || !tb[i].bound {
		return ndlog.Value{}, false
	}
	v := tb[i].val
	if t.Off != 0 {
		if v.Kind != ndlog.KindInt {
			return ndlog.Value{}, false
		}
		v = ndlog.Int(v.Int + t.Off)
	}
	return v, true
}

// eval evaluates a constraint under the table. It returns (satisfied,
// decidable): decidable=false when a term is unbound or a condition is not
// yet decidable.
func (tb table) eval(c *Constraint) (bool, bool) {
	for i := range c.Cond {
		ok, dec := tb.eval(&c.Cond[i])
		if !dec {
			return false, false
		}
		if !ok {
			return true, true // guard false: implication vacuously holds
		}
	}
	lv, lok := tb.resolve(c.L)
	rv, rok := tb.resolve(c.R)
	if !lok || !rok {
		return false, false
	}
	res, err := ndlog.EvalOp(c.Op, lv, rv)
	if err != nil {
		return false, true
	}
	return res.IsTrue(), true
}

// Pool is a conjunction of constraints over named variables (§3.4), kept
// solved as it grows. After every Add the binding table holds exactly the
// values that unconditional equalities (with offsets) force, open holds
// the constraints those values do not yet decide, and conflict is set once
// some constraint is decided false — which no later Add can undo, so every
// pool cloned from a conflicting one is unsatisfiable too.
//
// A Pool is not safe for concurrent use, but a pool and its clones are
// independent: what they share, none of them writes.
type Pool struct {
	last *node // newest constraint; the list is shared with clones
	n    int
	vars table         // every variable a constraint mentions, in first-mention order
	open []*Constraint // undecided so far: var=var equalities and comparisons on free variables
	// shared is set while vars and open may alias another pool's arrays
	// (after a Clone, on both sides); own copies them before the first write.
	shared bool
	// mixed is set once the pool holds anything but plain equalities
	// (unconditional, no offsets). Free variables of a plain pool are
	// unconstrained classes and take 0 at extraction; a mixed pool's go to
	// the candidate search.
	mixed    bool
	conflict bool
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Add appends constraints to the pool and propagates them: variables an
// unconditional equality grounds are bound, every constraint the bindings
// decide is checked, and the first one decided false latches a conflict.
func (p *Pool) Add(cs ...Constraint) {
	if len(cs) == 0 {
		return
	}
	nodes := make([]node, len(cs))
	for i := range cs {
		nodes[i].c = cs[i]
		p.link(&nodes[i])
	}
}

// link appends one node to the constraint list and propagates its
// constraint.
func (p *Pool) link(nd *node) {
	nd.prev = p.last
	p.last = nd
	p.n++
	c := &nd.c
	p.mention(c)
	if c.Op != ndlog.OpEq || len(c.Cond) > 0 || c.L.Off != 0 || c.R.Off != 0 {
		p.mixed = true
	}
	if p.conflict {
		return
	}
	switch p.settle(c) {
	case undecided:
		p.own()
		p.open = append(p.open, c)
	case bound:
		p.propagate()
	}
}

// mention gives every variable of c a row in the binding table.
func (p *Pool) mention(c *Constraint) {
	for _, name := range [2]string{c.L.Var, c.R.Var} {
		if name != "" && p.vars.find(name) < 0 {
			p.own()
			p.vars = append(p.vars, slot{name: name})
		}
	}
	for i := range c.Cond {
		p.mention(&c.Cond[i])
	}
}

// outcome is what settling one constraint against the bindings did.
type outcome uint8

const (
	undecided outcome = iota // a term is still free
	decided                  // holds under the bindings, for good
	bound                    // an equality grounded a variable (and now holds)
	failed                   // decided false: the conflict is latched
)

// settle checks c against the current bindings. An unconditional equality
// with exactly one side known binds the other side's variable.
func (p *Pool) settle(c *Constraint) outcome {
	if c.Op != ndlog.OpEq || len(c.Cond) > 0 {
		ok, dec := p.vars.eval(c)
		switch {
		case !dec:
			return undecided
		case ok:
			return decided
		}
		p.conflict = true
		return failed
	}
	lv, lok := p.vars.resolve(c.L)
	rv, rok := p.vars.resolve(c.R)
	switch {
	case lok && rok:
		if lv.Equal(rv) {
			return decided
		}
		p.conflict = true
		return failed
	case lok:
		return p.bind(c.R, lv)
	case rok:
		return p.bind(c.L, rv)
	}
	return undecided
}

// bind grounds the variable of t so that t equals val. A variable that is
// bound already (to a non-integer, under an offset) or that no value can
// make equal val stays as it is; the search then finds the pool unsatisfiable.
func (p *Pool) bind(t Term, val ndlog.Value) outcome {
	i := p.vars.find(t.Var)
	if p.vars[i].bound {
		return undecided
	}
	if t.Off != 0 {
		if val.Kind != ndlog.KindInt {
			return undecided
		}
		val = ndlog.Int(val.Int - t.Off)
	}
	p.own()
	p.vars[i].val, p.vars[i].bound = val, true
	return bound
}

// propagate re-settles the open constraints until no new variable is
// grounded, dropping the ones the bindings now decide.
func (p *Pool) propagate() {
	for progress := true; progress; {
		progress = false
		kept := p.open[:0]
		for _, c := range p.open {
			switch p.settle(c) {
			case undecided:
				kept = append(kept, c)
			case bound:
				progress = true
			case failed:
				return
			}
		}
		p.open = kept
	}
}

// Clone returns an independent pool with the same constraints. The
// constraint list is shared for good; the binding table and the short list
// of open constraints are shared until either pool next writes to its own,
// which copies them first — a clone that adds nothing the bindings do not
// already decide never copies anything.
func (p *Pool) Clone() *Pool {
	p.shared = true
	q := *p
	return &q
}

// own makes the binding table and the open list private to the pool.
func (p *Pool) own() {
	if !p.shared {
		return
	}
	p.vars = append(make(table, 0, len(p.vars)+ownHeadroom), p.vars...)
	p.open = append([]*Constraint(nil), p.open...)
	p.shared = false
}

// ownHeadroom is the number of new variables a pool can mention after
// taking its own table before the table regrows; a forked tree usually
// adds a handful.
const ownHeadroom = 4

// Len returns the number of constraints in the pool.
func (p *Pool) Len() int { return p.n }

// Constraints returns the pool's constraints in the order they were added.
func (p *Pool) Constraints() []Constraint {
	out := make([]Constraint, p.n)
	i := p.n
	for nd := p.last; nd != nil; nd = nd.prev {
		i--
		out[i] = nd.c
	}
	return out
}

// Value returns the value propagation has bound the variable to, if any.
func (p *Pool) Value(name string) (ndlog.Value, bool) {
	if i := p.vars.find(name); i >= 0 && p.vars[i].bound {
		return p.vars[i].val, true
	}
	return ndlog.Value{}, false
}

// Mentions reports whether any constraint mentions the variable.
func (p *Pool) Mentions(name string) bool { return p.vars.find(name) >= 0 }

// String renders the pool, one constraint per line.
func (p *Pool) String() string {
	var b strings.Builder
	for _, c := range p.Constraints() {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Vars returns the sorted variable names mentioned anywhere in the pool.
func (p *Pool) Vars() []string {
	out := make([]string, len(p.vars))
	for i := range p.vars {
		out[i] = p.vars[i].name
	}
	sort.Strings(out)
	return out
}

// Solver finds assignments for pools. It holds nothing but the search
// bound, so one Solver may be shared by any number of goroutines.
type Solver struct {
	// MaxBacktracks bounds search effort (0 means DefaultMaxBacktracks).
	MaxBacktracks int
}

// DefaultMaxBacktracks bounds the search for pathological pools.
const DefaultMaxBacktracks = 100000

// Sat reports whether the pool is satisfiable within the search bound. It
// is read off the propagated state; the search runs only when a constraint
// is still open on a free variable.
func (s *Solver) Sat(p *Pool) bool {
	if p.conflict {
		return false
	}
	if !p.mixed || len(p.open) == 0 {
		return true
	}
	sc := getScratch()
	defer sc.put()
	return s.search(p, sc)
}

// SatWith reports whether the pool would be satisfiable within the search
// bound with cs added — the verdict Sat would give on a clone of p after
// Add(cs...) — without building that clone. The trial pool's binding
// table, open list and constraint nodes are scratch buffers, and p is not
// written: not even its clones' copy-on-write state.
func (s *Solver) SatWith(p *Pool, cs ...Constraint) bool {
	if p.conflict {
		return false
	}
	if len(cs) == 0 {
		return s.Sat(p)
	}
	sc := getScratch()
	defer sc.put()
	q := sc.trial(p, cs)
	return !q.conflict && (!q.mixed || len(q.open) == 0 || s.search(&q, sc))
}

// Solve finds a satisfying assignment for the conjunction of all
// constraints in the pool, or reports ok=false if none exists within the
// search bound. It starts from the pool's bindings: a pool of plain
// equalities is completed by giving its free variables 0 (the paper's
// mini-solver fast path), any other by the candidate search.
func (s *Solver) Solve(p *Pool) (Assignment, bool) {
	if p.conflict {
		return nil, false
	}
	if !p.mixed {
		return p.vars.assignment(), true // the zero Value is the integer 0
	}
	sc := getScratch()
	defer sc.put()
	if !s.search(p, sc) {
		return nil, false
	}
	return sc.tb.assignment(), true
}

// SolveNegation finds an assignment that satisfies every hard constraint
// but violates at least one soft constraint — the negation step of §4.2.
// It tries soft constraints in order, preferring assignments that break
// earlier (more fundamental) derivation conditions.
func (s *Solver) SolveNegation(p *Pool) (Assignment, bool) {
	cs := p.Constraints()
	hard := NewPool()
	for _, c := range cs {
		if c.Hard {
			hard.Add(c)
		}
	}
	sc := getScratch()
	defer sc.put()
	for _, c := range cs {
		if c.Hard {
			continue
		}
		q := sc.trial(hard, []Constraint{c.Negate()})
		if !q.conflict && s.search(&q, sc) {
			return sc.tb.assignment(), true
		}
	}
	return nil, false
}

// scratch is the working storage of one verdict or solve: a trial pool's
// binding table, open list and constraint nodes, and the search's binding
// table, free-variable order and candidate values. Buffers keep their
// capacity between uses, so once they have grown to a search's pools a
// verdict allocates nothing.
type scratch struct {
	vars  table
	open  []*Constraint
	nodes []node

	tb     table
	free   []int
	keys   []byte
	all    []keyed
	cands  []ndlog.Value
	budget int
}

// keyed is one candidate value; its key is scratch.keys[from:to].
type keyed struct {
	val      ndlog.Value
	from, to int
}

// scratches recycles scratch storage; stream workers take verdicts
// concurrently, and each call holds its own scratch.
var scratches = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratches.Get().(*scratch) }

// put returns the scratch for reuse, first dropping the pointers into
// constraint lists it was handed, so a parked buffer keeps no pool alive.
func (sc *scratch) put() {
	clear(sc.open[:cap(sc.open)])
	clear(sc.nodes)
	scratches.Put(sc)
}

// trial returns p with cs added, built on the scratch buffers: the table
// and open list are copies of p's, the new constraints' nodes link to p's
// list without p ever pointing at them. The result lives only until the
// scratch is reused.
func (sc *scratch) trial(p *Pool, cs []Constraint) Pool {
	q := Pool{
		last:     p.last,
		n:        p.n,
		vars:     append(sc.vars[:0], p.vars...),
		open:     append(sc.open[:0], p.open...),
		mixed:    p.mixed,
		conflict: p.conflict,
	}
	if cap(sc.nodes) < len(cs) {
		sc.nodes = make([]node, len(cs))
	}
	nodes := sc.nodes[:len(cs)]
	for i := range cs {
		nodes[i].c = cs[i]
		q.link(&nodes[i])
	}
	sc.vars, sc.open = q.vars[:0], q.open[:0] // keep what the adds grew
	return q
}

// assignment returns every variable of the table with its value; unbound
// ones get the zero Value, the integer 0.
func (tb table) assignment() Assignment {
	asg := make(Assignment, len(tb))
	for _, sl := range tb {
		asg[sl.name] = sl.val
	}
	return asg
}

// search backtracks over candidate values for the variables propagation
// left free, in name order, and leaves the bindings it found in sc.tb.
// Candidates for each variable are the constants appearing in the pool and
// the bound values, plus off-by-one neighbours — the paper's observation
// that real bugs are small edits (§3.5) makes these the natural repair
// values. Only the open constraints need checking: the rest hold under the
// bindings, which the search keeps.
func (s *Solver) search(p *Pool, sc *scratch) bool {
	sc.tb = append(sc.tb[:0], p.vars...)
	sc.free = sc.free[:0]
	for i := range sc.tb {
		if !sc.tb[i].bound {
			sc.free = append(sc.free, i)
		}
	}
	if len(sc.free) > 0 {
		slices.SortFunc(sc.free, func(a, b int) int { return strings.Compare(sc.tb[a].name, sc.tb[b].name) })
		sc.candidates(p)
	}
	sc.budget = s.MaxBacktracks
	if sc.budget <= 0 {
		sc.budget = DefaultMaxBacktracks
	}
	return sc.dfs(p.open, 0)
}

// dfs binds the free variables from the i-th on, keeping every open
// constraint the bindings decide true.
func (sc *scratch) dfs(open []*Constraint, i int) bool {
	if sc.budget <= 0 {
		return false
	}
	if i == len(sc.free) {
		for _, c := range open {
			if ok, dec := sc.tb.eval(c); !dec || !ok {
				return false
			}
		}
		return true
	}
	sl := &sc.tb[sc.free[i]]
	for _, v := range sc.cands {
		sl.val, sl.bound = v, true
		consistent := true
		for _, c := range open {
			if ok, dec := sc.tb.eval(c); dec && !ok {
				consistent = false
				break
			}
		}
		if consistent && sc.dfs(open, i+1) {
			return true
		}
		sc.budget--
		sl.bound = false
	}
	return false
}

// candidates collects into sc.cands every constant in the pool and every
// bound value, plus ±1 neighbours of integers (to satisfy strict
// inequalities), deduplicated and ordered by value key.
func (sc *scratch) candidates(p *Pool) {
	sc.keys, sc.all, sc.cands = sc.keys[:0], sc.all[:0], sc.cands[:0]
	for nd := p.last; nd != nil; nd = nd.prev {
		sc.walk(&nd.c)
	}
	for _, sl := range p.vars {
		if sl.bound {
			sc.add(sl.val)
		}
	}
	if len(sc.all) == 0 {
		sc.cands = append(sc.cands, ndlog.Int(0))
		return
	}
	slices.SortFunc(sc.all, func(a, b keyed) int { return bytes.Compare(sc.key(a), sc.key(b)) })
	for i, k := range sc.all {
		if i == 0 || !bytes.Equal(sc.key(k), sc.key(sc.all[i-1])) {
			sc.cands = append(sc.cands, k.val)
		}
	}
}

func (sc *scratch) key(k keyed) []byte { return sc.keys[k.from:k.to] }

// walk adds the constants of a constraint and of its conditions.
func (sc *scratch) walk(c *Constraint) {
	if c.L.Var == "" {
		sc.add(c.L.Val)
	}
	if c.R.Var == "" {
		sc.add(c.R.Val)
	}
	for i := range c.Cond {
		sc.walk(&c.Cond[i])
	}
}

// add adds a value and, for an integer, its two neighbours.
func (sc *scratch) add(v ndlog.Value) {
	sc.add1(v)
	if v.Kind == ndlog.KindInt {
		sc.add1(ndlog.Int(v.Int + 1))
		sc.add1(ndlog.Int(v.Int - 1))
	}
}

func (sc *scratch) add1(v ndlog.Value) {
	from := len(sc.keys)
	sc.keys = v.AppendKey(sc.keys)
	sc.all = append(sc.all, keyed{v, from, len(sc.keys)})
}

// Check reports whether a full assignment satisfies the pool.
func Check(p *Pool, asg Assignment) bool {
	tb := make(table, 0, len(asg))
	for name, v := range asg {
		tb = append(tb, slot{name: name, val: v, bound: true})
	}
	for nd := p.last; nd != nil; nd = nd.prev {
		if ok, dec := tb.eval(&nd.c); !dec || !ok {
			return false
		}
	}
	return true
}
