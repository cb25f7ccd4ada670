package repro

import (
	"context"
	"os"
	"testing"
	"time"

	"repro/internal/backtest"
	"repro/internal/experiments"
	"repro/metarepair"
)

// TestDeltaBacktestSpeedup is the CI guard band for the incremental
// backtesting win: at one shared run's 63-tag capacity, the delta path
// (base fixpoint once, each candidate replayed as a tagged delta) must
// beat the full-fixpoint reference by at least 3×. The measured ratio
// sits near 5× (see EXPERIMENTS.md); 3× leaves room for noisy CI hosts
// while still failing if the delta path silently degrades into a full
// re-evaluation. Gated behind BENCH_SMOKE=1 so ordinary test runs skip
// the repeated timed evaluations.
func TestDeltaBacktestSpeedup(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 to run the delta speedup guard")
	}
	ctx := context.Background()
	sess, cands, bt, err := experiments.WideCandidates(ctx, benchScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) > backtest.MaxSharedCandidates {
		cands = cands[:backtest.MaxSharedCandidates]
	}
	best := func(eval metarepair.EvalMode) time.Duration {
		bestRun := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			run, err := sess.Evaluate(ctx, cands, bt,
				metarepair.WithParallelism(1),
				metarepair.WithEvalMode(eval))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := run.Wait(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < bestRun {
				bestRun = d
			}
		}
		return bestRun
	}
	full := best(metarepair.EvalFull)
	delta := best(metarepair.EvalDelta)
	t.Logf("%d candidates: full %v, delta %v (%.1fx)",
		len(cands), full, delta, float64(full)/float64(delta))
	if delta*3 > full {
		t.Errorf("delta backtesting is only %.1fx faster than full (want >= 3x): full %v, delta %v",
			float64(full)/float64(delta), full, delta)
	}
}
