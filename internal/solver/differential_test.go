package solver_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/solver"
	"repro/internal/solver/reference"
)

var cmpOps = []ndlog.BinOp{ndlog.OpEq, ndlog.OpNe, ndlog.OpLt, ndlog.OpGt, ndlog.OpLe, ndlog.OpGe}

// randTerm draws a variable (sometimes with an offset) or a small constant;
// a few constants are strings so ill-typed offsets and mixed-kind
// comparisons occur too.
func randTerm(r *rand.Rand) solver.Term {
	switch n := r.Intn(10); {
	case n < 5:
		return solver.V(fmt.Sprintf("v%d", r.Intn(6)))
	case n < 7:
		return solver.VOff(fmt.Sprintf("v%d", r.Intn(6)), int64(r.Intn(3)-1))
	case n < 9:
		return solver.CInt(int64(r.Intn(5)))
	}
	return solver.C(ndlog.Str(string(rune('a' + r.Intn(2)))))
}

// randConstraint draws an equality-heavy constraint — the forest search's
// pools are mostly equalities — that is sometimes conditional or hard.
func randConstraint(r *rand.Rand) solver.Constraint {
	c := solver.Constraint{Op: ndlog.OpEq, L: randTerm(r), R: randTerm(r)}
	if r.Intn(3) == 0 {
		c.Op = cmpOps[r.Intn(len(cmpOps))]
	}
	if r.Intn(8) == 0 {
		c.Cond = []solver.Constraint{{Op: cmpOps[r.Intn(len(cmpOps))], L: randTerm(r), R: randTerm(r)}}
	}
	c.Hard = r.Intn(4) == 0
	return c
}

// shadowed pairs an incremental pool with the flat list of everything added
// to it or to the ancestors it was cloned from.
type shadowed struct {
	pool *solver.Pool
	flat []solver.Constraint
}

// TestIncrementalMatchesReference grows families of pools by interleaved
// Add and Clone and demands, after every step, that the incremental store
// and the from-scratch reference agree on the pruning verdict, on the
// extraction verdict and assignment, and on the negation step — under a
// bound small enough that running out of budget is part of what must match.
// Before every Add the same constraints are tried first: SatWith must give
// the reference's verdict on the pool plus them and leave the pool, and a
// clone sharing its arrays, reading back exactly as before.
func TestIncrementalMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		live := []*shadowed{{pool: solver.NewPool()}}
		for step := 0; step < 40; step++ {
			sp := live[r.Intn(len(live))]
			if r.Intn(4) == 0 && len(live) < 8 {
				live = append(live, &shadowed{pool: sp.pool.Clone(), flat: append([]solver.Constraint(nil), sp.flat...)})
				continue
			}
			var added []solver.Constraint
			for n := 1 + r.Intn(3); n > 0; n-- {
				added = append(added, randConstraint(r))
			}
			bound := []int{40, 1500}[r.Intn(2)]
			where := fmt.Sprintf("seed %d step %d bound %d", seed, step, bound)
			trialMatchesReference(t, where, sp, added, bound)
			for _, c := range added {
				sp.pool.Add(c)
			}
			sp.flat = append(sp.flat, added...)
			compareWithReference(t, where, sp, bound)
		}
		// Adds on one pool must not have leaked into its relatives.
		for i, sp := range live {
			compareWithReference(t, fmt.Sprintf("seed %d final pool %d", seed, i), sp, 1500)
		}
	}
}

func compareWithReference(t *testing.T, where string, sp *shadowed, bound int) {
	t.Helper()
	if got := sp.pool.Constraints(); len(got)+len(sp.flat) > 0 && !reflect.DeepEqual(got, sp.flat) {
		t.Fatalf("%s: pool holds\n%v\nwant\n%v", where, got, sp.flat)
	}
	s := &solver.Solver{MaxBacktracks: bound}
	wantAsg, wantOK := reference.Solve(sp.flat, bound)
	if got := s.Sat(sp.pool); got != wantOK {
		t.Fatalf("%s: Sat = %v, reference %v on\n%s", where, got, wantOK, sp.pool)
	}
	gotAsg, gotOK := s.Solve(sp.pool)
	if gotOK != wantOK || !reflect.DeepEqual(gotAsg, wantAsg) {
		t.Fatalf("%s: Solve = %v %v, reference %v %v on\n%s", where, gotAsg, gotOK, wantAsg, wantOK, sp.pool)
	}
	wantAsg, wantOK = reference.SolveNegation(sp.flat, bound)
	gotAsg, gotOK = s.SolveNegation(sp.pool)
	if gotOK != wantOK || !reflect.DeepEqual(gotAsg, wantAsg) {
		t.Fatalf("%s: SolveNegation = %v %v, reference %v %v on\n%s", where, gotAsg, gotOK, wantAsg, wantOK, sp.pool)
	}
}

// trialMatchesReference takes the verdict on sp's pool plus added as a
// trial and requires the reference's verdict on the same constraints under
// the same bound, with the pool — and a clone that shares its arrays —
// unchanged by it.
func trialMatchesReference(t *testing.T, where string, sp *shadowed, added []solver.Constraint, bound int) {
	t.Helper()
	before := snap(sp.pool)
	clone := sp.pool.Clone()
	_, want := reference.Solve(append(slices.Clip(sp.flat), added...), bound)
	if got := (&solver.Solver{MaxBacktracks: bound}).SatWith(sp.pool, added...); got != want {
		t.Fatalf("%s: SatWith = %v, reference %v on\n%sadding %v", where, got, want, sp.pool, added)
	}
	for name, p := range map[string]*solver.Pool{"pool": sp.pool, "clone": clone} {
		if got := snap(p); !reflect.DeepEqual(got, before) {
			t.Fatalf("%s: SatWith changed the %s from %+v to %+v", where, name, before, got)
		}
	}
}

// snapshot is everything observable about a pool's state.
type snapshot struct {
	n           int
	constraints []solver.Constraint
	bindings    map[string]ndlog.Value
	sat         bool
}

func snap(p *solver.Pool) snapshot {
	s := snapshot{n: p.Len(), constraints: p.Constraints(), bindings: map[string]ndlog.Value{}}
	for _, name := range p.Vars() {
		if v, ok := p.Value(name); ok {
			s.bindings[name] = v
		}
	}
	s.sat = (&solver.Solver{}).Sat(p)
	return s
}

// TestCloneAliasing adds to a parent and to two of its clones, in every
// order and then concurrently, and requires each pool to end up exactly as
// if it had been built alone: sharing the constraint list must never let
// one pool's Add show in another's constraints or bindings, nor a trial
// verdict's.
func TestCloneAliasing(t *testing.T) {
	base := []solver.Constraint{
		solver.Eq(solver.V("a"), solver.V("b")),
		solver.Eq(solver.V("c"), solver.CInt(7)),
		solver.Cmp(solver.V("d"), ndlog.OpNe, solver.CInt(1)),
	}
	extra := [3][]solver.Constraint{
		{solver.Eq(solver.V("a"), solver.CInt(1)), solver.Eq(solver.V("e"), solver.VOff("b", 1))},
		{solver.Eq(solver.V("b"), solver.CInt(2)), solver.Eq(solver.V("d"), solver.CInt(1))},
		{solver.Eq(solver.V("a"), solver.CInt(3)), solver.Eq(solver.V("c"), solver.CInt(8)), solver.Eq(solver.V("f"), solver.V("a"))},
	}
	var want [3]snapshot
	for i := range want {
		alone := solver.NewPool()
		alone.Add(base...)
		alone.Add(extra[i]...)
		want[i] = snap(alone)
	}
	family := func() [3]*solver.Pool {
		parent := solver.NewPool()
		parent.Add(base...)
		return [3]*solver.Pool{parent, parent.Clone(), parent.Clone()}
	}
	check := func(how string, pools [3]*solver.Pool) {
		t.Helper()
		for i, p := range pools {
			if got := snap(p); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s: pool %d = %+v, want %+v", how, i, got, want[i])
			}
		}
	}
	for _, order := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		pools := family()
		for _, i := range order {
			pools[i].Add(extra[i]...)
		}
		check(fmt.Sprint("order ", order), pools)
	}
	for round := 0; round < 50; round++ {
		pools := family()
		var wg sync.WaitGroup
		for i := range pools {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for _, c := range extra[i] {
					pools[i].Add(c)
				}
			}(i)
		}
		wg.Wait()
		check("concurrent", pools)
	}
	// Trial verdicts on one shared pool, from several goroutines at once
	// and beside Adds to the clones that share its arrays, each on the
	// goroutine's own scratch: every verdict is the alone pool's, and the
	// shared pool reads back as built.
	parent := family()[0]
	clones := [3]*solver.Pool{parent.Clone(), parent.Clone(), parent.Clone()}
	var wg sync.WaitGroup
	for i := range clones {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				if got := (&solver.Solver{}).SatWith(parent, extra[i]...); got != want[i].sat {
					t.Errorf("SatWith(parent, extra %d) = %v, want %v", i, got, want[i].sat)
				}
			}
			clones[i].Add(extra[i]...)
		}(i)
	}
	wg.Wait()
	check("trials beside clones", clones)
	alone := solver.NewPool()
	alone.Add(base...)
	if got, want := snap(parent), snap(alone); !reflect.DeepEqual(got, want) {
		t.Fatalf("trials changed the shared pool: %+v, want %+v", got, want)
	}
}
