package metaprov_test

import (
	"testing"

	"repro/internal/metaprov"
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
func captureQ1(b *testing.B) ([]*metaprov.Tree, []verdictCase) {
	b.Helper()
	s := scenario.Q1Spec().MustInstantiate(scenario.Scale{Switches: 19, Flows: 300})
	ex := explorer(s, history(b, s))
	var (
		trees []*metaprov.Tree
		cases []verdictCase
		cur   *metaprov.Tree
	)
	ex.Audit(func(p *solver.Pool, sat bool) {
		cases = append(cases, verdictCase{parent: cur.Pool, added: p.Constraints()[cur.Pool.Len():], sat: sat})
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
		b.Fatalf("captured %d trees and %d verdicts", len(trees), len(cases))
	}
	return trees, cases
}

var (
	sinkTree *metaprov.Tree
	sinkSat  bool
)

// BenchmarkQuickSat measures one pruning verdict; the cases cycle through
// a real Q1 search. "incremental" takes it the way the search does: clone
// the forked tree's pool, add the fork's constraints, read the verdict.
// "reference" is what that cost before pools were solved as they grow:
// copy the parent's constraints, append, solve the lot from scratch.
func BenchmarkQuickSat(b *testing.B) {
	_, cases := captureQ1(b)
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
