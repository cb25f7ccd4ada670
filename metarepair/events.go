package metarepair

import (
	"io"
	"sync"
	"time"
)

// Event is one pipeline progress record. Unused fields are omitted from
// the JSON encoding, so every event kind shares this envelope:
//
//	explore.start       Symptom, Workers (stream search pool, always > 0)
//	explore.candidate   Index, Desc, Cost (one per streamed candidate)
//	explore.done        Candidates, Steps, Elapsed
//	candidates.filtered Filtered (removed by a candidate filter)
//	candidates.dropped  Dropped (removed by the candidate cap)
//	replay.open         Dir, Entries, Bytes, Segments, From, To
//	                    (Backtest.Source is a trace-store view)
//	backtest.start      Parallelism, Strategy (the producer: "streaming",
//	                    "first-accepted" or "barrier") — plus Candidates
//	                    and Batches when the candidate list was
//	                    materialized before backtesting began; a live
//	                    search starts before the counts are known
//	batch.done          Batch, Size, Elapsed
//	suggestion          Index, Desc, Accepted, KS
//	pipeline.overlap    Elapsed (explore ∩ replay concurrency, streaming mode)
//	pipeline.stop       Index (first accepted candidate; PipelineFirstAccepted)
//	report              Candidates, Accepted, Elapsed
//	span.start          Span, Parent — a timed pipeline region opened; batch
//	                    spans also carry Batch. Worker-timed spans (batch
//	                    and backtest) are emitted retroactively with Time
//	                    set to the measured boundary, so they can trail
//	                    their children in stream order while the
//	                    timestamps stay truthful.
//	span.end            Span, Parent, Elapsed (plus Batch on batch spans)
//
// The scenario suite runner emits cell-level events through the same
// envelope and stamps Scenario and Scale onto every event a cell's
// pipeline produces:
//
//	suite.start         Candidates (cells), Parallelism
//	cell.start          Scenario, Scale
//	cell.done           Scenario, Scale, Candidates, Passed, Accepted, Elapsed
//	suite.done          Candidates (cells), Passed (ok cells), Elapsed
//
// Watch mode (the self-healing loop) emits through the same envelope,
// stamping Watch with the watcher's label:
//
//	watch.start         Watch, Scenario, Symptom, Size (window), Dir
//	watch.detect        Watch, Scenario, Symptom, From, To, Triggers
//	watch.suppressed    Watch, Scenario, From, To, Desc (reason:
//	                    "in-flight", "concurrency", "debounce")
//	watch.repair.start  Watch, Scenario, From, To
//	watch.repair.done   Watch, Scenario, From, To, Candidates, Passed,
//	                    Accepted (a validated repair), Desc (the first
//	                    accepted repair), Elapsed (detection → verdict:
//	                    the time-to-validated-repair)
//	watch.stop          Watch, Entries, Candidates (detections)
type Event struct {
	Time        time.Time `json:"time"`
	Kind        string    `json:"kind"`
	Symptom     string    `json:"symptom,omitempty"`
	Candidates  int       `json:"candidates,omitempty"`
	Steps       int       `json:"steps,omitempty"`
	Filtered    int       `json:"filtered,omitempty"`
	Dropped     int       `json:"dropped,omitempty"`
	Batch       int       `json:"batch,omitempty"`
	Batches     int       `json:"batches,omitempty"`
	Size        int       `json:"size,omitempty"`
	Parallelism int       `json:"parallelism,omitempty"`
	Strategy    string    `json:"strategy,omitempty"`
	Index       int       `json:"index,omitempty"`
	Desc        string    `json:"desc,omitempty"`
	Accepted    bool      `json:"accepted,omitempty"`
	Passed      int       `json:"passed,omitempty"`
	KS          float64   `json:"ks,omitempty"`
	Workers     int       `json:"workers,omitempty"`
	Cost        float64   `json:"cost,omitempty"`
	Elapsed     float64   `json:"elapsed_ms,omitempty"`
	Dir         string    `json:"dir,omitempty"`
	Entries     int64     `json:"entries,omitempty"`
	Bytes       int64     `json:"bytes,omitempty"`
	Segments    int       `json:"segments,omitempty"`
	// From and To bound a windowed store replay (math.MinInt64 /
	// math.MaxInt64 when unbounded, omitted when not a replay event).
	From int64 `json:"from,omitempty"`
	To   int64 `json:"to,omitempty"`
	// Scenario and Scale label events produced inside one suite cell, so
	// interleaved streams from concurrent cells stay attributable.
	Scenario string `json:"scenario,omitempty"`
	Scale    string `json:"scale,omitempty"`
	// Span and Parent name the timed region on span.start/span.end events
	// (run, explore, backtest, batch, verdict).
	Span   string `json:"span,omitempty"`
	Parent string `json:"parent,omitempty"`
	// Watch labels events from a watch-mode loop; Triggers counts the
	// symptom-relevant packets in a flagged window.
	Watch    string `json:"watch,omitempty"`
	Triggers int64  `json:"triggers,omitempty"`
}

// EventSink receives pipeline progress events. Implementations must be
// safe for concurrent Emit calls: batched backtesting emits from worker
// goroutines.
type EventSink interface {
	Emit(Event)
}

// JSONLSink writes one JSON object per event per line — the append-only
// event-log idiom that keeps exploration and backtest progress observable
// in production. It is safe for concurrent use, and it reuses one
// preallocated encode buffer across events (see Event.AppendJSON), so
// steady-state emission does not allocate.
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
}

// NewJSONLSink wraps a writer (a log file, a pipe, os.Stderr).
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// Emit encodes and appends the event; write failures are dropped — an
// observability sink must never fail the pipeline.
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = e.AppendJSON(s.buf[:0])
	s.buf = append(s.buf, '\n')
	s.w.Write(s.buf)
}

// sinkFunc adapts a function to the EventSink interface.
type sinkFunc func(Event)

func (f sinkFunc) Emit(e Event) { f(e) }

// SinkFunc adapts a function to the EventSink interface.
func SinkFunc(f func(Event)) EventSink { return sinkFunc(f) }

// emit stamps and forwards an event when a sink is configured. Events
// that already carry a timestamp (retroactive span boundaries) keep it.
func (o options) emit(e Event) {
	if o.sink == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	o.sink.Emit(e)
}
