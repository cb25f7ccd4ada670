package metaprov

import (
	"strings"
	"testing"
	"time"

	"repro/internal/meta"
	"repro/internal/ndlog"
	"repro/internal/provenance"
)

// Invariants of the exploration machinery, checked on the Figure 2
// scenario: every emitted candidate must apply cleanly, the forest must
// respect its bounds, and the per-structure cap must hold.

func exploreFig2(t *testing.T, tune func(*Explorer)) ([]Candidate, *Explorer) {
	t.Helper()
	prog, rec := runFig2(t)
	ex := NewExplorer(meta.NewModel(prog), rec)
	if tune != nil {
		tune(ex)
	}
	v3, v80, v2 := ndlog.Int(3), ndlog.Int(80), ndlog.Int(2)
	return collectStream(t, ex, PinnedGoal("FlowTable", &v3, &v80, &v2)), ex
}

func TestEveryCandidateApplies(t *testing.T) {
	prog, rec := runFig2(t)
	ex := NewExplorer(meta.NewModel(prog), rec)
	v3, v80, v2 := ndlog.Int(3), ndlog.Int(80), ndlog.Int(2)
	for _, c := range collectStream(t, ex, PinnedGoal("FlowTable", &v3, &v80, &v2)) {
		patch, err := c.Apply(prog)
		if err != nil {
			t.Errorf("candidate %q does not apply: %v", c.Describe(), err)
			continue
		}
		if err := meta.Validate(patch.Prog); err != nil {
			t.Errorf("candidate %q yields invalid program: %v", c.Describe(), err)
		}
		if c.Cost <= 0 {
			t.Errorf("candidate %q has non-positive cost %v", c.Describe(), c.Cost)
		}
		if len(c.Changes) == 0 {
			t.Errorf("candidate with no changes: %q", c.Describe())
		}
	}
}

func TestStructureCapHolds(t *testing.T) {
	cands, ex := exploreFig2(t, func(ex *Explorer) {
		ex.MaxPerStructure = 1
		ex.MaxCandidates = 32
	})
	seen := map[string]int{}
	for _, c := range cands {
		seen[c.Structure()]++
		if seen[c.Structure()] > ex.MaxPerStructure {
			t.Fatalf("structure %q emitted %d times", c.Structure(), seen[c.Structure()])
		}
	}
}

func TestMaxCandidatesBound(t *testing.T) {
	cands, _ := exploreFig2(t, func(ex *Explorer) { ex.MaxCandidates = 3 })
	if len(cands) > 3 {
		t.Fatalf("candidates = %d, bound 3", len(cands))
	}
}

func TestMaxStepsBound(t *testing.T) {
	cands, ex := exploreFig2(t, func(ex *Explorer) { ex.MaxSteps = 5 })
	if got := ex.Stats().Steps; got > 5 {
		t.Fatalf("steps = %d, bound 5", got)
	}
	_ = cands // few or none; the bound itself is the invariant
}

// TestSolveTimeAccrues pins what Stats().SolveTime means now that pools
// are solved as they grow: the pre-fork checks, Add-time propagation and
// pruning verdicts are all on the stopwatch, so the figure stays above
// zero, and it is a part of the sequential search's wall time, not more.
func TestSolveTimeAccrues(t *testing.T) {
	start := time.Now()
	_, ex := exploreFig2(t, nil)
	explore := time.Since(start)
	solve := ex.Stats().SolveTime
	if solve <= 0 {
		t.Fatal("constraint-solving time not measured")
	}
	if solve > explore {
		t.Fatalf("constraint-solving time %v exceeds the search's %v", solve, explore)
	}
}

func TestCandidateDescriptionsDistinct(t *testing.T) {
	cands, _ := exploreFig2(t, nil)
	seen := map[string]bool{}
	for _, c := range cands {
		if seen[c.Signature()] {
			t.Fatalf("duplicate candidate %q", c.Signature())
		}
		seen[c.Signature()] = true
	}
}

func TestTreeRendersMetaVertices(t *testing.T) {
	cands, _ := exploreFig2(t, nil)
	sawChange := false
	for _, c := range cands {
		if c.Tree == nil {
			continue
		}
		r := c.Tree.Render()
		if strings.Contains(r, "NMETA-EXIST") {
			sawChange = true
		}
	}
	if !sawChange {
		t.Fatal("no candidate tree cites a program-change vertex")
	}
}

func TestPositiveCandidatesApply(t *testing.T) {
	prog, rec := runFig2(t)
	ex := NewExplorer(meta.NewModel(prog), rec)
	bad := ndlog.NewTuple("FlowTable", ndlog.Int(2), ndlog.Int(80), ndlog.Int(2))
	for _, c := range ex.RepairPositive(bad, rec) {
		if _, err := c.Apply(prog); err != nil {
			t.Errorf("positive candidate %q does not apply: %v", c.Describe(), err)
		}
	}
}

func TestPositiveNoDerivationsNoCandidates(t *testing.T) {
	prog, rec := runFig2(t)
	ex := NewExplorer(meta.NewModel(prog), rec)
	ghost := ndlog.NewTuple("FlowTable", ndlog.Int(99), ndlog.Int(99), ndlog.Int(99))
	if got := ex.RepairPositive(ghost, rec); len(got) != 0 {
		t.Fatalf("candidates for a never-derived tuple: %d", len(got))
	}
}

func TestRederivationGuard(t *testing.T) {
	// A program with two rules deriving the same tuple: disabling one
	// derivation must not be offered if the other still rederives it,
	// unless the candidate handles both.
	prog := ndlog.MustParse("redrv", `
materialize(Out, 1, 2, keys(0,1)).
a Out(@X,Y) :- In(@X,Y), X == 1.
b Out(@X,Y) :- In(@X,Y), Y == 5.
`)
	eng := ndlog.MustNewEngine(prog)
	rec := provenance.NewRecorder()
	eng.Listen(rec)
	eng.Insert(ndlog.NewTuple("In", ndlog.Int(1), ndlog.Int(5)))
	ex := NewExplorer(meta.NewModel(prog), rec)
	bad := ndlog.NewTuple("Out", ndlog.Int(1), ndlog.Int(5))
	for _, c := range ex.RepairPositive(bad, rec) {
		patch, err := c.Apply(prog)
		if err != nil {
			continue
		}
		e2 := ndlog.MustNewEngine(patch.Prog)
		deleted := map[string]bool{}
		for _, d := range patch.Deletes {
			deleted[d.Key()] = true
		}
		in := ndlog.NewTuple("In", ndlog.Int(1), ndlog.Int(5))
		if deleted[in.Key()] {
			continue
		}
		for _, tp := range e2.Insert(in) {
			if tp.Equal(bad) {
				t.Fatalf("candidate %q rederives the bad tuple", c.Describe())
			}
		}
	}
}
