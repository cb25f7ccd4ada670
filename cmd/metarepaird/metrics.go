package main

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/jobs"
	"repro/internal/obsv"
	"repro/internal/tracestore"
	"repro/metarepair"
)

// daemonMetrics is the server's telemetry root: one registry exposed at
// /metrics carrying the jobs_* engine families, per-route HTTP families,
// the session_* pipeline families, per-job ndlog engine work counters,
// and per-store tracestore gauges. Every family is registered up front,
// so a scrape sees the complete catalogue (HELP/TYPE lines) even before
// the first job runs.
type daemonMetrics struct {
	reg  *obsv.Registry
	jobs *jobs.Metrics
	// sessions aggregates pipeline events (span durations, suggestion
	// verdicts) across every job; it is attached to each job's event
	// stream alongside the SSE log.
	sessions *metarepair.MetricsSink
	// watches carries the sentinel_* self-healing families, shared by
	// every registered watch.
	watches *metarepair.WatchMetrics

	httpRequests *obsv.CounterVec   // http_requests_total{route,code}
	httpDuration *obsv.HistogramVec // http_request_duration_seconds{route}

	// engine carries the ndlog_* families: each finished job's session
	// engine counters and its shared backtest runs' delta-evaluation work.
	engine *metarepair.EngineMetrics
	// search carries metaprov_search_total: each finished job's exact
	// repair-search counts.
	search *metarepair.SearchMetrics

	storeEntries   *obsv.GaugeVec // tracestore_entries{tenant,trace}
	storeBytes     *obsv.GaugeVec
	storeSegments  *obsv.GaugeVec
	storeRotations *obsv.GaugeVec
}

func newDaemonMetrics() *daemonMetrics {
	reg := obsv.NewRegistry()
	return &daemonMetrics{
		reg:      reg,
		jobs:     jobs.NewMetrics(reg),
		sessions: metarepair.NewMetricsSink(reg),
		watches:  metarepair.NewWatchMetrics(reg),
		httpRequests: reg.CounterVec("http_requests_total",
			"HTTP requests served, by route pattern and status code.", "route", "code"),
		httpDuration: reg.HistogramVec("http_request_duration_seconds",
			"HTTP request latency, by route pattern.", nil, "route"),
		engine: metarepair.NewEngineMetrics(reg),
		search: metarepair.NewSearchMetrics(reg),
		storeEntries: reg.GaugeVec("tracestore_entries",
			"Records in a tenant's trace store.", "tenant", "trace"),
		storeBytes: reg.GaugeVec("tracestore_bytes",
			"On-disk bytes of a tenant's trace store.", "tenant", "trace"),
		storeSegments: reg.GaugeVec("tracestore_segments",
			"Segments (sealed + active) of a tenant's trace store.", "tenant", "trace"),
		storeRotations: reg.GaugeVec("tracestore_rotations",
			"Segment seals performed on a tenant's trace store by this process.", "tenant", "trace"),
	}
}

// recordStore refreshes one trace store's gauges (sampled after ingest
// and after every job that replays from the store).
func (m *daemonMetrics) recordStore(tenant, trace string, st tracestore.Stats) {
	m.storeEntries.With(tenant, trace).Set(float64(st.Entries))
	m.storeBytes.With(tenant, trace).Set(float64(st.Bytes))
	m.storeSegments.With(tenant, trace).Set(float64(st.Segments))
	m.storeRotations.With(tenant, trace).Set(float64(st.Rotations))
}

// statusRecorder captures the response code for the route metrics while
// passing the Flusher capability through — the SSE handler type-asserts
// it, so losing it would silently break event streaming.
type statusRecorder struct {
	http.ResponseWriter
	flusher http.Flusher
	code    int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Flush() {
	if r.flusher != nil {
		r.flusher.Flush()
	}
}

// instrument wraps a route handler with per-route request counting and
// latency timing. The label is the registration pattern ("POST
// /v1/tenants/{tenant}/jobs"), never the raw URL, so label cardinality
// is fixed by the route table.
func (m *daemonMetrics) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		rec.flusher, _ = w.(http.Flusher)
		start := time.Now()
		h(rec, r)
		if rec.code == 0 {
			rec.code = http.StatusOK
		}
		m.httpRequests.With(route, strconv.Itoa(rec.code)).Inc()
		m.httpDuration.With(route).Observe(time.Since(start).Seconds())
	}
}

// teeSink forwards each event to both the job's SSE log and the metrics
// aggregator.
type teeSink struct {
	a, b metarepair.EventSink
}

func (t teeSink) Emit(e metarepair.Event) {
	t.a.Emit(e)
	t.b.Emit(e)
}
