package metaprov

import "repro/internal/solver"

// Bridges for the external tests and benchmarks of this package, which
// need the scenarios (and so cannot live inside it).

// Audit installs fn to see every pruning verdict: the pool it is taken on,
// the constraints the fork would add, and the verdict.
func (ex *Explorer) Audit(fn func(p *solver.Pool, added []solver.Constraint, sat bool)) {
	ex.audit = fn
}

// ExploreSequential runs the sequential reference search.
func (ex *Explorer) ExploreSequential(g Goal) []Candidate { return ex.exploreSequential(g) }

// RootTree wraps a goal into the search's root tree.
func (ex *Explorer) RootTree(g Goal) *Tree { return ex.rootTree(g) }

// ExpandStep expands the tree's head obligation and returns the surviving
// forks.
func (ex *Explorer) ExpandStep(t *Tree) []*Tree { return ex.expandStep(t).kids }

// Fork forks the tree as a change-free expansion does.
func (t *Tree) Fork() *Tree { return t.forkFor(0) }
