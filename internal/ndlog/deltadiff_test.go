package ndlog_test

import (
	"context"
	"testing"

	"repro/internal/ndlog"
	"repro/metarepair"
	"repro/scenario"
)

// TestDeltaBacktestDifferentialScenarios runs every registered scenario's
// full pipeline twice — once with the full-fixpoint reference backtest and
// once with incremental delta evaluation — and asserts candidate-identical
// verdicts, under both the indexed and the scan join strategy. Delta mode
// is a pure evaluation-order optimisation: the base fixpoint runs once and
// each candidate is replayed as a tagged delta against it, so any verdict
// or KS divergence here means the incremental path changed semantics, not
// just speed.
func TestDeltaBacktestDifferentialScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("full-pipeline differential is not a -short test")
	}
	sc := scenario.Scale{Switches: 19, Flows: 500}
	type verdict struct {
		desc     string
		accepted bool
		ks       float64
	}
	run := func(strat ndlog.JoinStrategy, eval metarepair.EvalMode) map[string][]verdict {
		prev := ndlog.SetDefaultJoinStrategy(strat)
		defer ndlog.SetDefaultJoinStrategy(prev)
		out := make(map[string][]verdict)
		for _, spec := range scenario.Default().Specs() {
			s := spec.MustInstantiate(sc)
			res, err := s.Run(context.Background(), metarepair.WithEvalMode(eval))
			if err != nil {
				t.Fatalf("%s under strategy %d eval %v: %v", s.Name, strat, eval, err)
			}
			var vs []verdict
			for _, r := range res.Results {
				vs = append(vs, verdict{desc: r.Candidate.Describe(), accepted: r.Accepted, ks: r.KS})
			}
			out[s.Name] = vs
		}
		return out
	}

	for _, strat := range []struct {
		name string
		js   ndlog.JoinStrategy
	}{
		{"indexed", ndlog.JoinIndexed},
		{"scan", ndlog.JoinScan},
	} {
		full := run(strat.js, metarepair.EvalFull)
		delta := run(strat.js, metarepair.EvalDelta)
		for name, want := range full {
			have := delta[name]
			if len(have) != len(want) {
				t.Fatalf("%s under %s: %d candidates under full, %d under delta",
					name, strat.name, len(want), len(have))
			}
			for i := range want {
				if want[i] != have[i] {
					t.Errorf("%s candidate %d diverges under %s:\n  full:  %+v\n  delta: %+v",
						name, i, strat.name, want[i], have[i])
				}
			}
		}
	}
}
