package ndlog_test

import (
	"context"
	"testing"

	"repro/internal/ndlog"
	"repro/scenario"
)

// TestEngineDifferentialScenarios runs every registered scenario's full
// pipeline — symptom reproduction, provenance-driven candidate generation,
// and tagged shared backtesting — under both join strategies and asserts
// identical outcomes. The candidate list is a function of the
// recorded provenance graph and the verdicts a function of the tagged
// replay, so agreement here means the planned, indexed engine is
// provenance- and verdict-identical to the scan-join reference oracle
// across the whole suite.
func TestEngineDifferentialScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline differential is not a -short test")
	}
	sc := scenario.Scale{Switches: 19, Flows: 500}
	type verdict struct {
		desc     string
		accepted bool
		ks       float64
	}
	run := func(strat ndlog.JoinStrategy) map[string][]verdict {
		prev := ndlog.SetDefaultJoinStrategy(strat)
		defer ndlog.SetDefaultJoinStrategy(prev)
		out := make(map[string][]verdict)
		for _, spec := range scenario.Default().Specs() {
			s := spec.MustInstantiate(sc)
			res, err := s.Run(context.Background())
			if err != nil {
				t.Fatalf("%s under strategy %d: %v", s.Name, strat, err)
			}
			var vs []verdict
			for _, r := range res.Results {
				vs = append(vs, verdict{desc: r.Candidate.Describe(), accepted: r.Accepted, ks: r.KS})
			}
			out[s.Name] = vs
		}
		return out
	}

	indexed := run(ndlog.JoinIndexed)
	scan := run(ndlog.JoinScan)
	for name, want := range indexed {
		have := scan[name]
		if len(have) != len(want) {
			t.Fatalf("%s: %d candidates under indexed, %d under scan", name, len(want), len(have))
		}
		for i := range want {
			if want[i] != have[i] {
				t.Errorf("%s candidate %d diverges under scan:\n  indexed: %+v\n  oracle:  %+v",
					name, i, want[i], have[i])
			}
		}
	}
}

// TestDefaultJoinStrategyRoundTrip guards the strategy switch used by the
// differential harness: it must return the previous value so tests can
// restore it.
func TestDefaultJoinStrategyRoundTrip(t *testing.T) {
	prev := ndlog.SetDefaultJoinStrategy(ndlog.JoinScan)
	if got := ndlog.DefaultJoinStrategy(); got != ndlog.JoinScan {
		t.Fatalf("default = %v", got)
	}
	if back := ndlog.SetDefaultJoinStrategy(prev); back != ndlog.JoinScan {
		t.Fatalf("swap returned %v", back)
	}
	e := ndlog.MustNewEngine(&ndlog.Program{Name: "empty"})
	if e.JoinStrategy() != ndlog.DefaultJoinStrategy() {
		t.Fatal("engine did not inherit the default strategy")
	}
}
