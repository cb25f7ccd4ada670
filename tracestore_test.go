package repro

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/sdn"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/scenario"
)

// TestCaptureListReplayScenario is the end-to-end acceptance path: a
// scenario workload is captured into a segmented on-disk store through
// the live capture hook, the store is listed, and backtesting streams
// the workload back out — with verdicts identical to the in-memory
// slice path.
func TestCaptureListReplayScenario(t *testing.T) {
	ctx := context.Background()
	s := scenario.Q1Spec().MustInstantiate(scenario.Scale{Switches: 19, Flows: 300})
	sess, _, err := s.Diagnose()
	if err != nil {
		t.Fatal(err)
	}
	expl, err := sess.Explore(ctx, s.Symptom())
	if err != nil {
		t.Fatal(err)
	}
	if len(expl.Candidates) == 0 {
		t.Fatal("no candidates")
	}

	// Capture: replay the recorded traffic through a capture-hooked
	// network into the store.
	st, err := tracestore.Open(t.TempDir(), tracestore.Options{SegmentEntries: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	net := s.BuildNet()
	rec := tracestore.NewRecorder(st)
	net.Capture = rec
	injected := trace.Replay(net, s.Workload, 1)
	if injected != len(s.Workload) {
		t.Fatalf("injected %d of %d entries", injected, len(s.Workload))
	}
	if rec.Err() != nil {
		t.Fatal(rec.Err())
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	// List: the segment index must account for every captured packet.
	segs := st.Segments()
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}
	var total int64
	for _, si := range segs {
		total += si.Entries
	}
	if total != int64(injected) {
		t.Fatalf("segments account for %d entries, captured %d", total, injected)
	}

	// Replay: identical verdicts through the slice and store paths.
	bt := s.Backtest()
	sliceRun, err := sess.Evaluate(ctx, expl.Candidates, bt)
	if err != nil {
		t.Fatal(err)
	}
	sliceRep, err := sliceRun.Wait()
	if err != nil {
		t.Fatal(err)
	}
	storeBt := bt
	storeBt.Source = st.Source()
	storeRun, err := sess.Evaluate(ctx, expl.Candidates, storeBt)
	if err != nil {
		t.Fatal(err)
	}
	storeRep, err := storeRun.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(storeRep.Results) != len(sliceRep.Results) || len(sliceRep.Results) == 0 {
		t.Fatalf("result counts: slice %d, store %d", len(sliceRep.Results), len(storeRep.Results))
	}
	for i := range sliceRep.Results {
		a, b := sliceRep.Results[i], storeRep.Results[i]
		if a.Accepted != b.Accepted || a.Effective != b.Effective || a.KS != b.KS || a.P != b.P || a.HopLimited != b.HopLimited {
			t.Fatalf("verdict %d diverged:\n slice %+v\n store %+v", i, a, b)
		}
	}
	if storeRep.Accepted == 0 {
		t.Fatal("store-backed backtest accepted nothing")
	}
}

// TestMillionEntryStreamingReplay captures a million-entry trace and
// streams it back without ever materializing the full []trace.Entry:
// heap growth across the replay stays orders of magnitude below the
// ~120 MB the slice would occupy.
func TestMillionEntryStreamingReplay(t *testing.T) {
	const entries = 1_000_000
	st, err := tracestore.Open(t.TempDir(), tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Append in small batches so the writer, not the test, owns memory.
	batch := make([]trace.Entry, 0, 4096)
	for i := 0; i < entries; i++ {
		batch = append(batch, trace.Entry{
			Time:    int64(i + 1),
			SrcHost: "h1",
			Pkt:     sdn.Packet{SrcIP: int64(i % 251), DstIP: 201, DstPort: 80, Proto: 6},
		})
		if len(batch) == cap(batch) {
			if err := st.Append(batch...); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := st.Append(batch...); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Entries; got != entries {
		t.Fatalf("stored %d entries", got)
	}
	if segs := len(st.Segments()); segs < 10 {
		t.Fatalf("expected many segments, got %d", segs)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	var count int64
	var lastTime int64
	err = st.Source().Scan(func(e trace.Entry) error {
		count++
		if e.Time < lastTime {
			t.Fatalf("entry out of order at %d", count)
		}
		lastTime = e.Time
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != entries {
		t.Fatalf("streamed %d of %d entries", count, entries)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	sliceBytes := int64(entries) * trace.RecordSize
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if growth > sliceBytes/4 {
		t.Fatalf("replay retained %d bytes of heap — not streaming (full slice would be %d)",
			growth, sliceBytes)
	}
}
