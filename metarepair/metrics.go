package metarepair

import (
	"sync"

	"repro/internal/ndlog"
	"repro/internal/obsv"
)

// MetricsSink is an EventSink that aggregates pipeline telemetry into an
// obsv.Registry: span durations become session_span_duration_seconds
// histograms labeled by span name, every event increments
// session_events_total by kind, and suggestion verdicts count into
// session_suggestions_total. Both label sets are drawn from fixed
// vocabularies (the span hierarchy and the Event kind catalogue), so
// cardinality stays bounded no matter how many runs a process serves.
//
// Emit is safe for concurrent use and never blocks or fails — it only
// touches atomic registry hot paths — so the sink can sit directly on a
// streaming pipeline or inside a FanoutSink alongside SSE subscribers.
type MetricsSink struct {
	spans       *obsv.HistogramVec
	events      *obsv.CounterVec
	suggestions *obsv.CounterVec

	fanoutSubs    *obsv.GaugeVec
	fanoutDropped *obsv.GaugeVec
	mu            sync.Mutex
	fanouts       map[string]*FanoutSink
}

// NewMetricsSink registers the session_* families on reg and returns the
// recording sink. Registering twice on one registry panics (obsv treats
// re-registration with a different schema as a programming error), so
// long-lived processes create one sink per registry and share it across
// runs; the daemon does exactly that.
func NewMetricsSink(reg *obsv.Registry) *MetricsSink {
	return &MetricsSink{
		spans: reg.HistogramVec("session_span_duration_seconds",
			"Wall-clock duration of pipeline spans (run, explore, backtest, batch, verdict).",
			nil, "span"),
		events: reg.CounterVec("session_events_total",
			"Pipeline events observed, by kind.", "kind"),
		suggestions: reg.CounterVec("session_suggestions_total",
			"Backtested suggestions, by verdict.", "verdict"),
		fanoutSubs: reg.GaugeVec("session_fanout_subscribers",
			"Live subscribers on tracked event fan-outs (SSE streams, drainers).", "sink"),
		fanoutDropped: reg.GaugeVec("session_fanout_dropped_events",
			"Cumulative events lost to subscriber buffer overflow on tracked fan-outs.", "sink"),
		fanouts: make(map[string]*FanoutSink),
	}
}

// TrackFanout registers a fan-out under a label; RefreshFanouts samples
// its subscriber count and cumulative dropped events into the
// session_fanout_* gauges. Labels must come from a bounded vocabulary
// (the daemon tracks one aggregate per stream class, not per client).
// Tracking a new fan-out under an existing label replaces the old one —
// the gauges then describe the replacement.
func (m *MetricsSink) TrackFanout(label string, f *FanoutSink) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fanouts[label] = f
}

// UntrackFanout stops sampling a label, zeroing its gauges (a closed
// fan-out no longer has subscribers; the drop total ends with it).
func (m *MetricsSink) UntrackFanout(label string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.fanouts, label)
	m.fanoutSubs.With(label).Set(0)
	m.fanoutDropped.With(label).Set(0)
}

// RefreshFanouts samples every tracked fan-out into the gauges. Call it
// before exposition (the daemon's /metrics handler does).
func (m *MetricsSink) RefreshFanouts() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for label, f := range m.fanouts {
		st := f.Stats()
		m.fanoutSubs.With(label).Set(float64(st.Subscribers))
		m.fanoutDropped.With(label).Set(float64(st.Dropped))
	}
}

// Emit records one event. Non-span, non-suggestion kinds only count.
func (m *MetricsSink) Emit(e Event) {
	m.events.With(e.Kind).Inc()
	switch e.Kind {
	case "span.end":
		m.spans.With(e.Span).Observe(e.Elapsed / 1e3)
	case "suggestion":
		verdict := "rejected"
		if e.Accepted {
			verdict = "accepted"
		}
		m.suggestions.With(verdict).Inc()
	}
}

// EngineMetrics is the ndlog_* family catalogue both binaries expose: the
// session engine's work counters as ndlog_engine_ops_total{op} and the
// shared backtest runs' grouped joins as ndlog_delta_group_joins_total.
// Like MetricsSink, create one per registry.
type EngineMetrics struct {
	ops             *obsv.CounterVec
	deltaGroupJoins *obsv.Counter
}

// NewEngineMetrics registers the ndlog_* families on reg.
func NewEngineMetrics(reg *obsv.Registry) *EngineMetrics {
	return &EngineMetrics{
		ops: reg.CounterVec("ndlog_engine_ops_total",
			"NDlog engine work performed by finished runs, by operation.", "op"),
		deltaGroupJoins: reg.Counter("ndlog_delta_group_joins_total",
			"Shared joins performed by delta-grouped evaluation; each serves a whole trigger group."),
	}
}

// Record folds one finished run into the totals: session is the run's own
// engine snapshot (Session.EngineStats — each run has its own session, so
// it is exactly that run's work) and report the counters aggregated across
// its shared backtest batches (Report.Engine).
func (m *EngineMetrics) Record(session, report ndlog.EngineStats) {
	for _, c := range []struct {
		op string
		n  int64
	}{
		{"firings", session.Firings}, {"derivations", session.Derivations},
		{"inserts", session.Inserts}, {"deletes", session.Deletes}, {"sends", session.Sends},
		{"index_lookups", session.IndexLookups}, {"index_rows", session.IndexRows},
		{"scans", session.Scans}, {"scan_rows", session.ScanRows},
	} {
		if c.n > 0 {
			m.ops.With(c.op).Add(c.n)
		}
	}
	m.deltaGroupJoins.Add(report.GroupJoins)
}

// SearchMetrics is the metaprov_* family both binaries expose beside
// EngineMetrics: what finished runs' repair searches did, as
// metaprov_search_total{outcome}. The outcomes are the search's exact
// commit-loop counts (Report.Steps, Pruned, Extracted,
// DuplicateSignatures, CappedStructures): committed vertex expansions, the
// forks their pruning verdicts removed, complete trees extracted with a
// valid repair, and those of them turned away as duplicate signatures or
// over the per-structure cap. Like MetricsSink, create one per registry.
type SearchMetrics struct {
	outcomes *obsv.CounterVec
}

// NewSearchMetrics registers the metaprov_* family on reg.
func NewSearchMetrics(reg *obsv.Registry) *SearchMetrics {
	return &SearchMetrics{
		outcomes: reg.CounterVec("metaprov_search_total",
			"Repair-search work performed by finished runs, by outcome.", "outcome"),
	}
}

// Record folds one finished run's search counts into the totals.
func (m *SearchMetrics) Record(rep *Report) {
	for _, c := range []struct {
		outcome string
		n       int
	}{
		{"steps", rep.Steps}, {"pruned", rep.Pruned}, {"extracted", rep.Extracted},
		{"duplicate", rep.DuplicateSignatures}, {"capped", rep.CappedStructures},
	} {
		m.outcomes.With(c.outcome).Add(int64(c.n))
	}
}
