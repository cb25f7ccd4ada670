package metaprov_test

import (
	"testing"

	"repro/internal/metaprov"
	"repro/internal/ndlog"
	"repro/internal/solver"
	"repro/internal/solver/reference"
	"repro/scenario"
)

// verdictCase is one pruning verdict of a real search: the pool of the tree
// that was forked, what the fork added to it, and the verdict.
type verdictCase struct {
	parent *solver.Pool
	added  []solver.Constraint
	sat    bool
}

// captureQ1 walks the Q1 forest breadth-first and returns the partial
// trees it expanded and every pruning verdict taken while doing so.
func captureQ1(tb testing.TB) ([]*metaprov.Tree, []verdictCase) {
	tb.Helper()
	s := scenario.Q1Spec().MustInstantiate(scenario.Scale{Switches: 19, Flows: 300})
	ex := explorer(s, history(tb, s))
	var (
		trees []*metaprov.Tree
		cases []verdictCase
		cur   *metaprov.Tree
	)
	ex.Audit(func(p *solver.Pool, added []solver.Constraint, sat bool) {
		cases = append(cases, verdictCase{parent: p, added: added, sat: sat})
	})
	frontier := []*metaprov.Tree{ex.RootTree(s.Goal)}
	for len(frontier) > 0 && len(trees) < 400 {
		cur, frontier = frontier[0], frontier[1:]
		if cur.Complete() {
			continue
		}
		trees = append(trees, cur)
		frontier = append(frontier, ex.ExpandStep(cur)...)
	}
	if len(trees) == 0 || len(cases) == 0 {
		tb.Fatalf("captured %d trees and %d verdicts", len(trees), len(cases))
	}
	return trees, cases
}

var (
	sinkTree *metaprov.Tree
	sinkSat  bool
)

// BenchmarkQuickSat measures one pruning verdict; the cases cycle through
// a real Q1 search. "trial" takes it the way the search does: SatWith on
// the forked tree's pool and the fork's constraints, building nothing.
// "incremental" is what that cost before verdicts were trials: clone the
// pool, add the constraints, read the verdict off the clone. "reference"
// is what it cost before pools were solved as they grow: copy the parent's
// constraints, append, solve the lot from scratch.
func BenchmarkQuickSat(b *testing.B) {
	_, cases := captureQ1(b)
	b.Run("trial", func(b *testing.B) {
		pruner := solver.Solver{MaxBacktracks: 1500}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := cases[i%len(cases)]
			if sinkSat = pruner.SatWith(c.parent, c.added...); sinkSat != c.sat {
				b.Fatalf("verdict %v, the search's was %v", sinkSat, c.sat)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		pruner := solver.Solver{MaxBacktracks: 1500}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := cases[i%len(cases)]
			q := c.parent.Clone()
			q.Add(c.added...)
			if sinkSat = pruner.Sat(q); sinkSat != c.sat {
				b.Fatalf("verdict %v, the search's was %v", sinkSat, c.sat)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		flat := make([][]solver.Constraint, len(cases))
		for i, c := range cases {
			flat[i] = c.parent.Constraints()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := cases[i%len(cases)]
			cs := append(append([]solver.Constraint(nil), flat[i%len(cases)]...), c.added...)
			if _, sinkSat = reference.Solve(cs, 1500); sinkSat != c.sat {
				b.Fatalf("verdict %v, the search's was %v", sinkSat, c.sat)
			}
		}
	})
}

// BenchmarkTreeFork measures forking one partial tree of a real Q1 search.
func BenchmarkTreeFork(b *testing.B) {
	trees, _ := captureQ1(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkTree = trees[i%len(trees)].Fork()
	}
}

// TestVerdictsAllocateNothing is the allocation ratchet on the pruning
// verdict: over every verdict of a real Q1 search, SatWith allocates
// nothing, and neither does Sat on a built pool the candidate search has
// to decide. Under the race detector sync.Pool drops a share of what it is
// given, so the counts there are not the solver's.
func TestVerdictsAllocateNothing(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, cases := captureQ1(t)
	pruner := solver.Solver{MaxBacktracks: 1500}
	searched := 0
	for i, c := range cases {
		if n := testing.AllocsPerRun(20, func() { sinkSat = pruner.SatWith(c.parent, c.added...) }); n != 0 {
			t.Fatalf("case %d: SatWith allocates %.1f times per verdict", i, n)
		}
		q := c.parent.Clone()
		q.Add(c.added...)
		if !mixed(q.Constraints()) {
			continue
		}
		searched++
		if n := testing.AllocsPerRun(20, func() { sinkSat = pruner.Sat(q) }); n != 0 {
			t.Fatalf("case %d: Sat on a mixed pool allocates %.1f times per verdict", i, n)
		}
	}
	if searched == 0 {
		t.Fatalf("none of %d verdicts was on a mixed pool", len(cases))
	}
	t.Logf("%d verdicts, %d on mixed pools", len(cases), searched)
}

// mixed reports whether a pool of these constraints holds anything but
// plain equalities, so that a verdict on it may need the candidate search.
func mixed(cs []solver.Constraint) bool {
	for _, c := range cs {
		if c.Op != ndlog.OpEq || len(c.Cond) > 0 || c.L.Off != 0 || c.R.Off != 0 {
			return true
		}
	}
	return false
}
