package metarepair_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/obsv"
	"repro/metarepair"
)

// collectSink gathers every emitted event for post-run assertions.
type collectSink struct {
	mu     sync.Mutex
	events []metarepair.Event
}

func (c *collectSink) Emit(e metarepair.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *collectSink) snapshot() []metarepair.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]metarepair.Event(nil), c.events...)
}

// spansByName indexes a report's spans for assertions.
func spansByName(spans []metarepair.Span) map[string][]metarepair.Span {
	out := make(map[string][]metarepair.Span)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// checkSpanHierarchy asserts the invariants every composition must
// provide: one run/explore/backtest/verdict span each, batch spans under
// backtest, coherent bounds, and balanced span.start/span.end events.
func checkSpanHierarchy(t *testing.T, rep *metarepair.Report, events []metarepair.Event) {
	t.Helper()
	if len(rep.Spans) == 0 {
		t.Fatal("report carries no spans")
	}
	by := spansByName(rep.Spans)
	for _, name := range []string{metarepair.SpanRun, metarepair.SpanExplore,
		metarepair.SpanBacktest, metarepair.SpanVerdict} {
		if len(by[name]) != 1 {
			t.Fatalf("span %q appears %d times, want 1 (spans: %+v)", name, len(by[name]), rep.Spans)
		}
	}
	if len(by[metarepair.SpanBatch]) != rep.Batches {
		t.Fatalf("%d batch spans for %d batches", len(by[metarepair.SpanBatch]), rep.Batches)
	}
	run := by[metarepair.SpanRun][0]
	if run.Parent != "" {
		t.Fatalf("run span parent = %q, want root", run.Parent)
	}
	for _, s := range rep.Spans {
		if s.End.Before(s.Start) {
			t.Fatalf("span %q ends before it starts: %+v", s.Name, s)
		}
		if s.Name == metarepair.SpanRun {
			continue
		}
		wantParent := metarepair.SpanRun
		if s.Name == metarepair.SpanBatch || s.Name == metarepair.SpanBacktestDelta {
			wantParent = metarepair.SpanBacktest
		}
		if s.Parent != wantParent {
			t.Fatalf("span %q parent = %q, want %q", s.Name, s.Parent, wantParent)
		}
		if s.Start.Before(run.Start) || s.End.After(run.End) {
			t.Fatalf("span %q [%v, %v] escapes the run span [%v, %v]",
				s.Name, s.Start, s.End, run.Start, run.End)
		}
	}
	// The default evaluation mode is delta, so every shared-run
	// composition must attribute the backtest window to it: exactly one
	// backtest.delta child covering the same bounds as its parent.
	bt := by[metarepair.SpanBacktest][0]
	if deltas := by[metarepair.SpanBacktestDelta]; len(deltas) != 1 {
		t.Fatalf("span %q appears %d times, want 1", metarepair.SpanBacktestDelta, len(deltas))
	} else if !deltas[0].Start.Equal(bt.Start) || !deltas[0].End.Equal(bt.End) {
		t.Fatalf("delta span [%v, %v] does not cover the backtest span [%v, %v]",
			deltas[0].Start, deltas[0].End, bt.Start, bt.End)
	}
	verdict := by[metarepair.SpanVerdict][0]
	if verdict.Start.Before(by[metarepair.SpanExplore][0].End) {
		t.Fatal("verdict span started before exploration ended")
	}
	// Span boundaries are first-class sink events: balanced start/end
	// pairs for every recorded span, in the same vocabulary.
	starts, ends := map[string]int{}, map[string]int{}
	for _, e := range events {
		switch e.Kind {
		case "span.start":
			starts[e.Span]++
		case "span.end":
			ends[e.Span]++
		}
	}
	for name, spans := range by {
		if starts[name] != len(spans) || ends[name] != len(spans) {
			t.Fatalf("span %q: %d recorded, %d start / %d end events",
				name, len(spans), starts[name], ends[name])
		}
	}
}

// TestReportSpansStreaming covers the overlapped streaming composition —
// the batch spans come from pipeline workers and the backtest span is
// reconstructed from the first batch launch.
func TestReportSpansStreaming(t *testing.T) {
	sink := &collectSink{}
	sess, wl := runDiagnostic(t, metarepair.WithEventSink(sink))
	rep, err := sess.Repair(context.Background(), miniSymptom(), miniBacktest(wl),
		metarepair.WithBatchSize(2))
	if err != nil {
		t.Fatal(err)
	}
	checkSpanHierarchy(t, rep, sink.snapshot())
	by := spansByName(rep.Spans)
	if got := by[metarepair.SpanBacktest][0].Duration(); got != rep.Timing.Replay {
		t.Fatalf("Timing.Replay = %v, backtest span = %v — they must be derived from the same span",
			rep.Timing.Replay, got)
	}
}

// TestReportSpansBarrier covers the materialized producer (explore fully,
// then evaluate): the backtest span is still reconstructed from the first
// batch launch, which can only follow the end of exploration.
func TestReportSpansBarrier(t *testing.T) {
	sink := &collectSink{}
	sess, wl := runDiagnostic(t, metarepair.WithEventSink(sink))
	rep, err := sess.Repair(context.Background(), miniSymptom(), miniBacktest(wl),
		metarepair.WithPipelineMode(metarepair.PipelineBarrier), metarepair.WithBatchSize(2))
	if err != nil {
		t.Fatal(err)
	}
	checkSpanHierarchy(t, rep, sink.snapshot())
	// Under PipelineBarrier exploration strictly precedes replay.
	by := spansByName(rep.Spans)
	if by[metarepair.SpanBacktest][0].Start.Before(by[metarepair.SpanExplore][0].End) {
		t.Fatal("PipelineBarrier overlapped explore and backtest")
	}
}

// TestMetricsSinkRecordsSpans drives a full repair through a MetricsSink
// and checks the session_* families aggregate what the report says.
func TestMetricsSinkRecordsSpans(t *testing.T) {
	reg := obsv.NewRegistry()
	sink := metarepair.NewMetricsSink(reg)
	sess, wl := runDiagnostic(t, metarepair.WithEventSink(sink))
	rep, err := sess.Repair(context.Background(), miniSymptom(), miniBacktest(wl),
		metarepair.WithBatchSize(2))
	if err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	sc, err := obsv.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parsing exposition: %v\n%s", err, sb.String())
	}
	for span, want := range map[string]float64{
		"run": 1, "explore": 1, "backtest": 1, "verdict": 1,
		"batch": float64(rep.Batches),
	} {
		got, ok := sc.Value("session_span_duration_seconds_count",
			map[string]string{"span": span})
		if !ok || got != want {
			t.Fatalf("span %q histogram count = %v (%v), want %v\n%s", span, got, ok, want, sb.String())
		}
	}
	accepted := sc.Sum("session_suggestions_total", map[string]string{"verdict": "accepted"})
	rejected := sc.Sum("session_suggestions_total", map[string]string{"verdict": "rejected"})
	if int(accepted) != rep.Accepted || int(accepted+rejected) != len(rep.Suggestions) {
		t.Fatalf("suggestion counters accepted=%v rejected=%v, report accepted=%d total=%d",
			accepted, rejected, rep.Accepted, len(rep.Suggestions))
	}
	if v := sc.Sum("session_events_total", nil); v <= 0 {
		t.Fatal("no events counted")
	}
}
