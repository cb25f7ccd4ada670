package metarepair_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/metarepair"
)

// captureMiniWorkload replays the mini workload through a capture-hooked
// network so the store holds the live traffic — the §5.4 capture path.
func captureMiniWorkload(t *testing.T, st *tracestore.Store) {
	t.Helper()
	net := miniNet()
	rec := tracestore.NewRecorder(st)
	net.Capture = rec
	wl := miniWorkload()
	if n := trace.Replay(net, wl, 1); n != len(wl) {
		t.Fatalf("replayed %d of %d entries", n, len(wl))
	}
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if captured := rec.Count(); captured != int64(len(wl)) {
		t.Fatalf("captured %d of %d packets", captured, len(wl))
	}
}

// TestStoreBackedEvaluateMatchesSlice is the acceptance check at the API
// level: candidates evaluated against a workload streamed from the
// on-disk store get verdicts identical to the in-memory slice path.
func TestStoreBackedEvaluateMatchesSlice(t *testing.T) {
	ctx := context.Background()
	sess, wl := runDiagnostic(t)
	expl, err := sess.Explore(ctx, miniSymptom())
	if err != nil {
		t.Fatal(err)
	}
	if len(expl.Candidates) == 0 {
		t.Fatal("no candidates")
	}

	sliceRun, err := sess.Evaluate(ctx, expl.Candidates, miniBacktest(wl))
	if err != nil {
		t.Fatal(err)
	}
	sliceRep, err := sliceRun.Wait()
	if err != nil {
		t.Fatal(err)
	}

	st, err := tracestore.Open(t.TempDir(), tracestore.Options{SegmentEntries: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	captureMiniWorkload(t, st)

	var mu sync.Mutex
	kinds := map[string]int{}
	sink := metarepair.SinkFunc(func(e metarepair.Event) {
		mu.Lock()
		kinds[e.Kind]++
		mu.Unlock()
	})
	bt := miniBacktest(nil)
	bt.Source = st.Source()
	storeRun, err := sess.Evaluate(ctx, expl.Candidates, bt, metarepair.WithEventSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	storeRep, err := storeRun.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if len(storeRep.Results) != len(sliceRep.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(storeRep.Results), len(sliceRep.Results))
	}
	for i := range sliceRep.Results {
		a, b := sliceRep.Results[i], storeRep.Results[i]
		if a.Accepted != b.Accepted || a.Effective != b.Effective || a.KS != b.KS || a.HopLimited != b.HopLimited {
			t.Fatalf("verdict %d diverged: slice %+v vs store %+v", i, a, b)
		}
	}
	if storeRep.Accepted == 0 {
		t.Fatal("store-backed run accepted nothing")
	}
	if kinds["replay.open"] == 0 {
		t.Fatalf("no replay.open event: %v", kinds)
	}
}

// TestReplayWindow restricts store-backed replay to a time slice of the
// captured history.
func TestReplayWindow(t *testing.T) {
	ctx := context.Background()
	sess, _ := runDiagnostic(t)
	expl, err := sess.Explore(ctx, miniSymptom())
	if err != nil {
		t.Fatal(err)
	}
	st, err := tracestore.Open(t.TempDir(), tracestore.Options{SegmentEntries: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	captureMiniWorkload(t, st)

	bt := miniBacktest(nil)
	// A window covering the whole capture accepts repairs...
	bt.Source = st.Source().Window(0, math.MaxInt64)
	run, err := sess.Evaluate(ctx, expl.Candidates, bt)
	if err != nil {
		t.Fatal(err)
	}
	full, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if full.Accepted == 0 {
		t.Fatal("full window accepted nothing")
	}
	// ...while an empty window replays no traffic, so nothing can be
	// shown effective.
	bt.Source = st.Source().Window(-10, -1)
	run, err = sess.Evaluate(ctx, expl.Candidates, bt)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if empty.Accepted != 0 {
		t.Fatalf("empty window accepted %d repairs", empty.Accepted)
	}
}
