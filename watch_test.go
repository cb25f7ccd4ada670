package repro

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/sentinel"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/metarepair"
	"repro/scenario"
)

// TestWatchSelfHealsLiveStream is the self-healing acceptance path: a
// watcher tails a live trace store while a capture streams in — healthy
// background traffic first, then the symptomatic flows mid-stream. The
// online detector flags the offending window while appends are still
// arriving, the watcher launches a first-accepted repair scoped to that
// window, and the backtest validates a patch — all without the test
// ever invoking the offline pipeline.
func TestWatchSelfHealsLiveStream(t *testing.T) {
	const window = 64

	s := scenario.Q1Spec().MustInstantiate(scenario.Scale{Switches: 19, Flows: 300})
	trigger := sentinel.TriggerFromGoal(s.Goal)
	if trigger == nil {
		t.Fatal("Q1 goal does not derive a trigger")
	}

	// Rebuild the capture fault-last: background flows stream first,
	// symptom-relevant ones after, each restamped onto a single
	// monotonic clock — the shape `metarepair capture -fault-last`
	// produces for exactly this drill.
	stream := append([]trace.Entry(nil), s.Workload...)
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].Time < stream[j].Time })
	var healthy, faulty []trace.Entry
	for _, e := range stream {
		if trigger(e) {
			faulty = append(faulty, e)
		} else {
			healthy = append(healthy, e)
		}
	}
	if len(faulty) <= window+1 {
		t.Fatalf("only %d symptom entries — cannot close a %d-tick window mid-stream", len(faulty), window)
	}
	ordered := append(append([]trace.Entry(nil), healthy...), faulty...)
	for i := range ordered {
		ordered[i].Time = int64(i + 1)
	}

	st, err := tracestore.Open(t.TempDir(), tracestore.Options{SegmentEntries: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Collect watch.* lifecycle events; validated repairs ring the bell.
	var mu sync.Mutex
	var events []metarepair.Event
	validated := make(chan metarepair.Event, 4)
	sink := metarepair.SinkFunc(func(e metarepair.Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
		if e.Kind == "watch.repair.done" && e.Accepted {
			select {
			case validated <- e:
			default:
			}
		}
	})

	w, err := metarepair.NewWatcher(metarepair.WatchConfig{
		Scenario:  s.Name,
		Store:     st,
		Program:   s.Prog,
		Symptom:   s.Symptom(),
		BuildNet:  s.BuildNet,
		State:     s.State,
		Effective: s.Effective,
		Window:    window,
		Lookback:  int64(len(ordered)), // replay evidence back to the stream's start
		Poll:      5 * time.Millisecond,
		Sink:      sink,
		Options:   s.Options,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- w.Run(ctx) }()

	// Stream the capture in while the watcher follows.
	for i := 0; i < len(ordered); i += 128 {
		end := i + 128
		if end > len(ordered) {
			end = len(ordered)
		}
		if err := st.Append(ordered[i:end]...); err != nil {
			t.Fatal(err)
		}
	}

	select {
	case ev := <-validated:
		if ev.Desc == "" {
			t.Error("validated repair event carries no patch description")
		}
		if ev.Elapsed <= 0 {
			t.Errorf("validated repair event reports elapsed %v ms", ev.Elapsed)
		}
	case <-ctx.Done():
		t.Fatalf("no validated repair before deadline; stats %+v", w.Stats())
	}

	// Let any stragglers (suppression overlaps) settle, then wind down.
	deadline := time.Now().Add(time.Minute)
	for {
		stt := w.Stats()
		if stt.Launched == stt.Validated+stt.Unvalidated+stt.Failed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("repairs still outstanding: %+v", stt)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-runDone; err != nil {
		t.Fatalf("watcher run: %v", err)
	}

	stt := w.Stats()
	if stt.Entries != int64(len(ordered)) {
		t.Errorf("watcher saw %d of %d entries", stt.Entries, len(ordered))
	}
	if stt.Detections == 0 || stt.Launched == 0 || stt.Validated == 0 {
		t.Errorf("stats show no validated detection: %+v", stt)
	}
	if stt.SkippedSegments != 0 {
		t.Errorf("live tail skipped %d segments without retention", stt.SkippedSegments)
	}

	mu.Lock()
	defer mu.Unlock()
	kinds := map[string]int{}
	for _, e := range events {
		kinds[e.Kind]++
		// Inline repair sessions share the sink, so pipeline events
		// (span.*, suggestion, ...) interleave unlabeled; every watch.*
		// lifecycle event must carry the watch label.
		if len(e.Kind) > 6 && e.Kind[:6] == "watch." && e.Watch != s.Name {
			t.Fatalf("event %s mislabeled: watch %q", e.Kind, e.Watch)
		}
	}
	for _, k := range []string{"watch.start", "watch.detect", "watch.repair.start", "watch.repair.done", "watch.stop"} {
		if kinds[k] == 0 {
			t.Errorf("no %s event (saw %v)", k, kinds)
		}
	}
	// The detection must sit in the symptomatic suffix of the stream.
	faultStart := int64(len(healthy))
	for _, e := range events {
		if e.Kind == "watch.detect" && e.To <= faultStart {
			t.Errorf("detection window [%d,%d] predates the fault at %d", e.From, e.To, faultStart)
		}
	}
}
