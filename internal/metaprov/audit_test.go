package metaprov_test

import (
	"reflect"
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

// TestPruneDecisionsMatchReference runs the Q1–Q5 searches with every
// pruning verdict — those the pre-fork check skips included — taken two
// more ways under the same bound: on a built fork (clone the pool, add the
// fork's constraints, Sat) and by the from-scratch reference solver. All
// three must agree, and a trial must leave the pool it is taken on as it
// was. The audited search must also find exactly what the unaudited one
// finds, so the pre-fork check never decided differently from the full one.
func TestPruneDecisionsMatchReference(t *testing.T) {
	for _, spec := range scenario.Default().Specs() {
		s := spec.MustInstantiate(scenario.Scale{Switches: 19, Flows: 300})
		t.Run(s.Name, func(t *testing.T) {
			rec := history(t, s)
			plain := explorer(s, rec)
			want := plain.ExploreSequential(s.Goal)

			audited := explorer(s, rec)
			pools, pruned := 0, 0
			pruner := solver.Solver{MaxBacktracks: 1500}
			audited.Audit(func(p *solver.Pool, added []solver.Constraint, sat bool) {
				pools++
				if !sat {
					pruned++
				}
				before := stateOf(p)
				if again := pruner.SatWith(p, added...); again != sat {
					t.Errorf("trial verdict %v, then %v on the same pool", sat, again)
				}
				if after := stateOf(p); !reflect.DeepEqual(after, before) {
					t.Errorf("trial verdict changed its pool from\n%+v\nto\n%+v", before, after)
				}
				q := p.Clone()
				q.Add(added...)
				if built := pruner.Sat(q); built != sat {
					t.Errorf("trial verdict %v, built fork %v on\n%s", sat, built, q)
				}
				if _, ref := reference.Solve(q.Constraints(), 1500); ref != sat {
					t.Errorf("trial verdict %v, reference %v on\n%s", sat, ref, q)
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

// poolState is what a pool shows its readers: its constraints and the
// value propagation bound each variable to.
type poolState struct {
	constraints []solver.Constraint
	bound       map[string]ndlog.Value
}

func stateOf(p *solver.Pool) poolState {
	st := poolState{constraints: p.Constraints(), bound: map[string]ndlog.Value{}}
	for _, name := range p.Vars() {
		if v, ok := p.Value(name); ok {
			st.bound[name] = v
		}
	}
	return st
}
