package ndlog_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/backtest"
	"repro/internal/ndlog"
	"repro/internal/sdn"
	"repro/internal/trace"
	"repro/scenario"
)

// insertLog records every base insertion an engine receives.
type insertLog struct {
	ndlog.BaseListener
	tuples []ndlog.Tuple
}

func (l *insertLog) OnInsert(_ int64, tp ndlog.Tuple) { l.tuples = append(l.tuples, tp.Clone()) }

// controllerInserts replays the scenario's workload under tags through prog
// as the controller of a fresh fork, and returns every tuple the engine was
// handed: the seeded state, then each PacketIn in arrival order.
func controllerInserts(t *testing.T, s *scenario.Scenario, prog *ndlog.Program, state []ndlog.Tuple, tags uint64) []ndlog.Tuple {
	t.Helper()
	eng := ndlog.MustNewEngine(prog)
	eng.SetEvalMode(ndlog.EvalDelta)
	log := &insertLog{}
	eng.Listen(log)
	net := s.BuildNet()
	ctl := sdn.NewNDlogController(eng)
	net.Ctrl = ctl
	ctl.InsertState(net, state...)
	if _, err := trace.ReplaySource(net, trace.SliceSource(s.Workload), tags); err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	return log.tuples
}

// TestQuietEngineMatchesListenedScenarios holds the listener-free engine to
// the listened one on what production runs through each: Q1-Q5's own
// programs as the diagnostic replay feeds them, and the §4.4 shared program
// of each scenario's candidates under the full tag set, as the shared
// backtest does. The inserts are recorded once through a controller and then
// given to a pair of engines — a no-op listener on one, none on the other —
// under both evaluation modes and both join strategies.
func TestQuietEngineMatchesListenedScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario-level differential is not a -short test")
	}
	sc := scenario.Scale{Switches: 19, Flows: 300}
	replaced := 0
	for _, spec := range scenario.Default().Specs() {
		s := spec.MustInstantiate(sc)
		sess, _, err := s.Diagnose()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		expl, err := sess.Explore(context.Background(), s.Symptom())
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		cands := expl.Candidates
		if len(cands) > backtest.MaxSharedCandidates {
			cands = cands[:backtest.MaxSharedCandidates]
		}
		shared, inserts, deletes, err := backtest.BuildSharedProgram(s.Prog, cands, true)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		// The shared run's seed, as Job.RunShared lays it out.
		fullMask := uint64(1)<<(len(cands)+1) - 1
		var seeded []ndlog.Tuple
		for _, st := range s.State {
			tp := st.Clone()
			tp.Tags = fullMask &^ deletes[tp.Key()]
			seeded = append(seeded, tp)
		}
		for bit := 1; bit <= len(cands); bit++ {
			for _, ins := range inserts[bit] {
				tp := ins.Clone()
				tp.Tags = 1 << uint(bit)
				seeded = append(seeded, tp)
			}
		}
		for _, run := range []struct {
			name  string
			prog  *ndlog.Program
			state []ndlog.Tuple
			tags  uint64
		}{
			{"diagnostic", s.Prog, s.State, 1},
			{"shared", shared, seeded, fullMask},
		} {
			ops := controllerInserts(t, s, run.prog, run.state, run.tags)
			for _, mode := range []ndlog.EvalMode{ndlog.EvalFull, ndlog.EvalDelta} {
				for _, strat := range []ndlog.JoinStrategy{ndlog.JoinIndexed, ndlog.JoinScan} {
					loud := ndlog.MustNewEngine(run.prog)
					loud.SetEvalMode(mode)
					loud.SetJoinStrategy(strat)
					loud.Listen(ndlog.BaseListener{})
					label := fmt.Sprintf("%s %s (%d candidates) mode %v strategy %d", s.Name, run.name, len(cands), mode, strat)
					twin := ndlog.NewQuietTwin(t, label, loud)
					for _, tp := range ops {
						twin.Insert(tp)
					}
					twin.Finish()
					if twin.Appearances <= len(ops) {
						t.Errorf("%s: %d inserts made %d appearances: nothing was derived", label, len(ops), twin.Appearances)
					}
					replaced += twin.Replaced
				}
			}
		}
	}
	if replaced == 0 {
		t.Error("no scenario replaced a row under its primary key (Q5's learning table should)")
	}
}
