package metaprov_test

import (
	"testing"

	"repro/internal/meta"
	"repro/internal/metaprov"
	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/sdn"
	"repro/internal/solver"
	"repro/internal/solver/reference"
	"repro/internal/trace"
	"repro/scenario"
)

// history replays a scenario's workload through its buggy program and
// returns the provenance the explorer searches.
func history(tb testing.TB, s *scenario.Scenario) *provenance.Recorder {
	tb.Helper()
	eng := ndlog.MustNewEngine(s.Prog)
	rec := provenance.NewRecorder()
	eng.Listen(rec)
	net := s.BuildNet()
	ctl := sdn.NewNDlogController(eng)
	net.Ctrl = ctl
	for _, st := range s.State {
		ctl.InsertState(net, st)
	}
	if n := trace.Replay(net, s.Workload, 1); n != len(s.Workload) {
		tb.Fatalf("%s: replayed %d of %d entries", s.Name, n, len(s.Workload))
	}
	return rec
}

func explorer(s *scenario.Scenario, rec *provenance.Recorder) *metaprov.Explorer {
	ex := metaprov.NewExplorer(meta.NewModel(s.Prog), rec)
	ex.Cutoff = 3.4
	ex.MaxCandidates = 12
	return ex
}

// TestPruneDecisionsMatchReference runs the Q1–Q5 searches with every pool
// a pruning verdict is taken on — the pools the pre-fork check skips
// included — handed to the from-scratch reference solver under the same
// bound, and requires the same decision on each. The audited search must
// also find exactly what the unaudited one finds, so the pre-fork check
// never decided differently from the full one.
func TestPruneDecisionsMatchReference(t *testing.T) {
	for _, spec := range scenario.Default().Specs() {
		s := spec.MustInstantiate(scenario.Scale{Switches: 19, Flows: 300})
		t.Run(s.Name, func(t *testing.T) {
			rec := history(t, s)
			plain := explorer(s, rec)
			want := plain.ExploreSequential(s.Goal)

			audited := explorer(s, rec)
			pools, pruned := 0, 0
			audited.Audit(func(p *solver.Pool, sat bool) {
				pools++
				if !sat {
					pruned++
				}
				if _, ref := reference.Solve(p.Constraints(), 1500); ref != sat {
					t.Errorf("incremental verdict %v, reference %v on\n%s", sat, ref, p)
				}
			})
			got := audited.ExploreSequential(s.Goal)

			if pools == 0 || pruned == 0 {
				t.Fatalf("audit saw %d pools, %d pruned: the search is not exercising the check", pools, pruned)
			}
			if len(got) != len(want) || audited.Stats().Steps != plain.Stats().Steps {
				t.Fatalf("audited search: %d candidates in %d steps, unaudited %d in %d",
					len(got), audited.Stats().Steps, len(want), plain.Stats().Steps)
			}
			for i := range want {
				if got[i].Signature() != want[i].Signature() || got[i].Cost != want[i].Cost {
					t.Fatalf("candidate %d: audited %q, unaudited %q", i, got[i].Describe(), want[i].Describe())
				}
			}
			t.Logf("%d pools checked, %d pruned", pools, pruned)
		})
	}
}
