package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/metarepair"
	"repro/scenario"
)

// sseBuffer bounds each SSE subscriber's pending-event backlog. A client
// that reads slower than the pipeline emits loses its oldest pending
// events (drop-oldest, counted) instead of stalling the repair session.
const sseBuffer = 1024

// server is the repair-as-a-service HTTP surface: it owns a tenants
// trace-store tree, a scenario registry, and the bounded job engine, and
// maps the REST surface onto them.
type server struct {
	registry *scenario.Registry
	tenants  *tracestore.Tenants
	engine   *jobs.Engine
	mux      *http.ServeMux
	metrics  *daemonMetrics
	// draining closes when shutdown starts, ending live SSE streams that
	// would otherwise hold Shutdown open forever.
	draining chan struct{}

	// watches holds the registered self-healing loops (see watch.go).
	watchMu  sync.Mutex
	watches  map[string]*watchRecord
	watchSeq int
}

// newServer wires the daemon: the engine's transition observer feeds
// every state change into the job's event log (closing the log on a
// terminal transition is what ends that job's SSE streams) and, chained
// behind it, the jobs metrics recorder. Every API route is instrumented
// with per-route request/latency metrics, and the whole registry is
// exposed at GET /metrics. enablePprof additionally mounts
// net/http/pprof under /debug/pprof/.
func newServer(registry *scenario.Registry, tenants *tracestore.Tenants, cfg jobs.Config, enablePprof bool) *server {
	s := &server{
		registry: registry,
		tenants:  tenants,
		mux:      http.NewServeMux(),
		metrics:  newDaemonMetrics(),
		draining: make(chan struct{}),
		watches:  make(map[string]*watchRecord),
	}
	cfg.OnTransition = func(j jobs.Job) {
		elog, ok := j.Meta.(*eventLog)
		if !ok {
			return
		}
		elog.emitLifecycle("job."+j.State.String(), j.ID)
		if j.State.Terminal() {
			elog.close()
		}
	}
	s.engine = jobs.New(s.metrics.jobs.Instrument(cfg))

	handle := func(pattern string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, s.metrics.instrument(pattern, h))
	}
	handle("POST /v1/tenants/{tenant}/traces/{name}", s.handleIngest)
	handle("GET /v1/tenants/{tenant}/traces", s.handleListTraces)
	handle("POST /v1/tenants/{tenant}/jobs", s.handleSubmitJob)
	handle("GET /v1/tenants/{tenant}/jobs", s.handleListJobs)
	handle("GET /v1/jobs/{id}", s.handleGetJob)
	handle("DELETE /v1/jobs/{id}", s.handleCancelJob)
	handle("GET /v1/jobs/{id}/events", s.handleJobEvents)
	handle("POST /v1/tenants/{tenant}/watches", s.handleCreateWatch)
	handle("GET /v1/tenants/{tenant}/watches", s.handleListWatches)
	handle("GET /v1/watches/{id}", s.handleGetWatch)
	handle("DELETE /v1/watches/{id}", s.handleStopWatch)
	handle("GET /v1/watches/{id}/events", s.handleWatchEvents)
	handle("GET /scenarios", s.handleScenarios)
	handle("GET /healthz", s.handleHealthz)
	metricsHandler := s.metrics.reg.Handler()
	handle("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		// Fan-out gauges are sampled, not event-driven: refresh them at
		// exposition so a scrape sees current SSE backpressure.
		s.metrics.sessions.RefreshFanouts()
		metricsHandler.ServeHTTP(w, r)
	})
	if enablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// shutdown drains the daemon: watches stop first (so nothing submits
// new repairs mid-drain), live SSE streams end, the engine finishes
// (or, past the deadline, cancels) its jobs, and the trace stores close.
func (s *server) shutdown(ctx context.Context) error {
	close(s.draining)
	s.stopWatches(ctx)
	err := s.engine.Drain(ctx)
	if cerr := s.tenants.CloseAll(); err == nil {
		err = cerr
	}
	return err
}

// handleIngest appends a stream of codec records (the request body) to
// the tenant's named trace store, creating it on first ingest. The
// ?format= query selects the record codec (binary, the paper's 120-byte
// format, is the default).
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	tenant, name := r.PathValue("tenant"), r.PathValue("name")
	codec, err := tracestore.CodecByName(r.URL.Query().Get("format"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st, err := s.tenants.Open(tenant, name)
	if errors.Is(err, tracestore.ErrBadName) {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "opening store: %v", err)
		return
	}
	dec := codec.NewDecoder(r.Body)
	var scratch []byte
	batch := make([]trace.Entry, 0, 1024)
	ingested := 0
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := st.Append(batch...); err != nil {
			return err
		}
		ingested += len(batch)
		batch = batch[:0]
		return nil
	}
	var bad error
	for {
		var e trace.Entry
		err := dec.Next(&e)
		if err == io.EOF {
			break
		}
		if err == nil && codec != st.Codec() {
			// A record another codec decoded may not fit the store's (a
			// binary record holds a host ID of at most 63 bytes): that is
			// a bad record too, not a failed append.
			scratch, err = st.Codec().AppendRecord(scratch[:0], e)
		}
		if err != nil {
			bad = err
			break
		}
		batch = append(batch, e)
		if len(batch) == cap(batch) {
			if err := flush(); err != nil {
				writeError(w, http.StatusInternalServerError, "append: %v", err)
				return
			}
		}
	}
	if err := flush(); err != nil {
		writeError(w, http.StatusInternalServerError, "append: %v", err)
		return
	}
	if err := st.Sync(); err != nil {
		writeError(w, http.StatusInternalServerError, "sync: %v", err)
		return
	}
	if bad != nil {
		// The decoded prefix is durable now; the error names the first
		// bad record so the client can resume past it.
		writeError(w, http.StatusBadRequest, "record %d: %v", ingested, bad)
		return
	}
	stats := st.Stats()
	s.metrics.recordStore(tenant, name, stats)
	writeJSON(w, http.StatusOK, ingestResponse{
		Tenant: tenant, Trace: name, Ingested: ingested,
		Entries: stats.Entries, Bytes: stats.Bytes, Segments: stats.Segments,
	})
}

func (s *server) handleListTraces(w http.ResponseWriter, r *http.Request) {
	names, err := s.tenants.List(r.PathValue("tenant"))
	if errors.Is(err, tracestore.ErrBadName) {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if names == nil {
		names = []string{}
	}
	writeJSON(w, http.StatusOK, map[string][]string{"traces": names})
}

// handleSubmitJob validates a repair request — registered scenario,
// existing trace, well-formed knobs — and queues it on the engine. The
// expensive work (instantiating the scenario, running the pipeline) all
// happens on the worker, under the job's own context.
func (s *server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	if !tracestore.ValidName(tenant) {
		writeError(w, http.StatusBadRequest, "invalid tenant %q", tenant)
		return
	}
	var req jobRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	spec, err := s.registry.Lookup(req.Scenario)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	mode, err := metarepair.ParsePipelineMode(req.Pipeline)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts, err := req.options()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts = append(opts, metarepair.WithPipelineMode(mode))
	scale, err := req.scale()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var source trace.Source
	var store *tracestore.Store
	if req.Trace != "" {
		st, err := s.tenants.Lookup(tenant, req.Trace)
		if errors.Is(err, tracestore.ErrBadName) {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		if st == nil {
			writeError(w, http.StatusNotFound, "tenant %s has no trace %q", tenant, req.Trace)
			return
		}
		store = st
		view := st.Source()
		if req.From != nil || req.To != nil {
			from, to := int64(math.MinInt64), int64(math.MaxInt64)
			if req.From != nil {
				from = *req.From
			}
			if req.To != nil {
				to = *req.To
			}
			if from > to {
				writeError(w, http.StatusBadRequest, "from %d exceeds to %d", from, to)
				return
			}
			view = view.Window(from, to)
		}
		source = view
	}
	label := req.Label
	if label == "" {
		label = fmt.Sprintf("%s@%s", spec.Name, scale)
	}
	elog := newEventLog()
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	fn := func(ctx context.Context) (any, error) {
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		sc, err := spec.Instantiate(scale)
		if err != nil {
			return nil, err
		}
		if source != nil {
			sc.Source = source
		}
		sink := teeSink{a: elog, b: s.metrics.sessions}
		out, err := sc.Run(ctx, append(opts, metarepair.WithEventSink(sink))...)
		if err != nil {
			return nil, err
		}
		// Sample the job's NDlog engine work — the session engine's
		// counters plus the shared backtest runs' delta-evaluation work —
		// its search counts and, when it replayed from a stored trace, the
		// store's current shape into the registry.
		s.metrics.engine.Record(out.Session.EngineStats(), out.Report.Engine)
		s.metrics.search.Record(out.Report)
		if store != nil {
			s.metrics.recordStore(tenant, req.Trace, store.Stats())
		}
		return reportFromOutcome(out), nil
	}
	j, err := s.engine.Submit(tenant, label, elog, fn)
	var quota *jobs.QuotaError
	switch {
	case errors.As(err, &quota):
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, jobs.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, statusFromJob(j))
}

func (s *server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	list := s.engine.List(r.PathValue("tenant"))
	out := make([]jobStatus, 0, len(list))
	for _, j := range list {
		out = append(out, statusFromJob(j))
	}
	writeJSON(w, http.StatusOK, map[string][]jobStatus{"jobs": out})
}

func (s *server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, err := s.engine.Get(r.PathValue("id"))
	if errors.Is(err, jobs.ErrNotFound) {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, statusFromJob(j))
}

func (s *server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, err := s.engine.Cancel(r.PathValue("id"))
	if errors.Is(err, jobs.ErrNotFound) {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, statusFromJob(j))
}

// handleJobEvents streams the job's events as SSE, ending when the job
// reaches a terminal state (see streamEvents).
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, err := s.engine.Get(r.PathValue("id"))
	if errors.Is(err, jobs.ErrNotFound) {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	elog, ok := j.Meta.(*eventLog)
	if !ok {
		writeError(w, http.StatusInternalServerError, "job has no event log")
		return
	}
	s.streamEvents(w, r, elog)
}

// streamEvents writes an event log as SSE: the recorded history first,
// then the live tail, until the log closes, the client disconnects, or
// the daemon drains. Events are encoded with Event.AppendJSON into one
// reused buffer, so a long stream does not allocate per event.
func (s *server) streamEvents(w http.ResponseWriter, r *http.Request, elog *eventLog) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	history, sub := elog.subscribe(sseBuffer)
	defer sub.Cancel()

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	go func() {
		select {
		case <-s.draining:
			cancel()
		case <-ctx.Done():
		}
	}()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	var buf []byte
	write := func(e metarepair.Event) bool {
		buf = append(buf[:0], "data: "...)
		buf = e.AppendJSON(buf)
		buf = append(buf, '\n', '\n')
		if _, err := w.Write(buf); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	for _, e := range history {
		if !write(e) {
			return
		}
	}
	for {
		e, ok := sub.Next(ctx)
		if !ok || !write(e) {
			return
		}
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.engine.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "workers": st.Workers,
		"queued": st.Queued, "running": st.Running,
		"succeeded": st.Succeeded, "failed": st.Failed, "cancelled": st.Cancelled,
	})
}
