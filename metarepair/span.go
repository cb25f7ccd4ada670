package metarepair

import (
	"sync"
	"time"
)

// Span is one timed region of a pipeline run. Spans form a small fixed
// hierarchy — "run" covers the whole pipeline, its children are
// "explore", "backtest", and "verdict", and each shared-run batch is a
// "batch" child of "backtest" carrying its batch index — so consumers
// can aggregate by name without unbounded label cardinality. Span
// boundaries are surfaced as first-class span.start/span.end events on
// the EventSink, and the completed set is returned on Report.Spans.
type Span struct {
	// Name identifies the region: run, explore, backtest, batch, verdict.
	Name string
	// Parent is the enclosing span's name ("" for the root).
	Parent string
	// Index distinguishes sibling batch spans (the batch index); zero for
	// the singleton spans.
	Index int
	Start time.Time
	End   time.Time
}

// Duration is the span's wall-clock extent.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Span and child names used by the session pipeline.
const (
	SpanRun      = "run"
	SpanExplore  = "explore"
	SpanBacktest = "backtest"
	SpanBatch    = "batch"
	SpanVerdict  = "verdict"
	// SpanBacktestDelta is recorded as a child of SpanBacktest, covering
	// the same window, when the shared runs used delta evaluation — so
	// span consumers can attribute backtest time to a mode without any
	// existing "backtest" aggregation changing shape.
	SpanBacktestDelta = "backtest.delta"
)

// tracer collects the spans of one pipeline run and mirrors their
// boundaries onto the event sink. It is safe for concurrent use: with a
// live candidate source the feeder goroutine ends the explore span while
// batch workers record batch spans.
type tracer struct {
	o  options
	mu sync.Mutex
	sp []Span
}

func newTracer(o options) *tracer { return &tracer{o: o} }

// start opens a live span, emitting span.start now; the returned func
// closes it, recording the span and emitting span.end.
func (t *tracer) start(name, parent string) func() {
	begin := time.Now()
	t.o.emit(Event{Time: begin, Kind: "span.start", Span: name, Parent: parent})
	return func() {
		s := Span{Name: name, Parent: parent, Start: begin, End: time.Now()}
		t.record(s)
		t.o.emit(Event{Time: s.End, Kind: "span.end", Span: name, Parent: parent, Elapsed: ms(s.Duration())})
	}
}

// add records a span that was timed externally (batch workers stamp
// their own bounds; the backtest window is known only after the fact)
// and emits both boundary events carrying
// the measured timestamps rather than emission time.
func (t *tracer) add(s Span) {
	t.record(s)
	t.o.emit(Event{Time: s.Start, Kind: "span.start", Span: s.Name, Parent: s.Parent, Batch: s.Index})
	t.o.emit(Event{Time: s.End, Kind: "span.end", Span: s.Name, Parent: s.Parent, Batch: s.Index,
		Elapsed: ms(s.Duration())})
}

func (t *tracer) record(s Span) {
	t.mu.Lock()
	t.sp = append(t.sp, s)
	t.mu.Unlock()
}

// find returns the first recorded span with the given name.
func (t *tracer) find(name string) (Span, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.sp {
		if s.Name == name {
			return s, true
		}
	}
	return Span{}, false
}

// snapshot returns the recorded spans in completion order.
func (t *tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.sp))
	copy(out, t.sp)
	return out
}
