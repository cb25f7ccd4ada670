package repro

import (
	"context"
	"testing"

	"repro/internal/backtest"
	"repro/internal/experiments"
	"repro/metarepair"
)

// TestDeltaBacktestSharesJoins is the CI guard for incremental backtesting,
// on the counts the delta path is defined by rather than on wall-clock: at
// one shared run's 63-tag capacity, delta evaluation must report exactly
// the rule firings and derivations of the full-fixpoint reference, with
// identical verdicts, while performing at most one join per ten firings
// (measured: 7 017 group joins for 133 024 firings, a 94.7 % hit rate) —
// if grouping silently degrades into a join per member, GroupJoins climbs
// towards Firings and this fails. It replaces a ≥3× wall-clock guard: most
// of that ratio was the per-member map cloning the slot-frame engine no
// longer does in either mode (EXPERIMENTS.md, "PR 16").
func TestDeltaBacktestSharesJoins(t *testing.T) {
	ctx := context.Background()
	sess, cands, bt, err := experiments.WideCandidates(ctx, benchScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) > backtest.MaxSharedCandidates {
		cands = cands[:backtest.MaxSharedCandidates]
	}
	evaluate := func(eval metarepair.EvalMode) *metarepair.Report {
		run, err := sess.Evaluate(ctx, cands, bt,
			metarepair.WithParallelism(1),
			metarepair.WithEvalMode(eval))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := run.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	full, delta := evaluate(metarepair.EvalFull), evaluate(metarepair.EvalDelta)
	fe, de := full.Engine, delta.Engine
	t.Logf("%d candidates: %d firings, %d derivations; delta %d group joins (%.1f%% hit rate)",
		len(cands), de.Firings, de.Derivations, de.GroupJoins, 100*(1-float64(de.GroupJoins)/float64(de.Firings)))
	if fe.Firings != de.Firings || fe.Derivations != de.Derivations {
		t.Errorf("full counted %d firings / %d derivations, delta %d / %d",
			fe.Firings, fe.Derivations, de.Firings, de.Derivations)
	}
	if fe.GroupJoins != 0 {
		t.Errorf("full evaluation reports %d group joins, want 0", fe.GroupJoins)
	}
	if de.GroupJoins == 0 || de.GroupJoins*10 > de.Firings {
		t.Errorf("delta performed %d group joins for %d firings, want between 1 and a tenth", de.GroupJoins, de.Firings)
	}
	if len(full.Results) != len(delta.Results) {
		t.Fatalf("%d verdicts under full, %d under delta", len(full.Results), len(delta.Results))
	}
	for i, f := range full.Results {
		d := delta.Results[i]
		if f.Accepted != d.Accepted || f.Effective != d.Effective || f.KS != d.KS || f.HopLimited != d.HopLimited {
			t.Errorf("candidate %d (%s): full %+v, delta %+v", i, f.Candidate.Describe(), f, d)
		}
	}
}
