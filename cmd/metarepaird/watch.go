package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/tracestore"
	"repro/metarepair"
	"repro/scenario"
)

// watchRequest is the POST /v1/tenants/{tenant}/watches body: which
// trace to follow, which scenario's symptom to detect, the window
// shape, and the knobs auto-launched repairs run with.
type watchRequest struct {
	// The scenario is the one whose symptom the watch detects, at the scale
	// its topology and oracle resolve at; the knobs tune the auto-launched
	// repair sessions, whose pipeline mode is always first-accepted.
	repairRequest
	// Trace names the tenant trace store to follow. It is created empty
	// if it does not exist yet, so a watch can be registered before the
	// first ingest.
	Trace string `json:"trace"`
	// Window is the sliding-window width in trace ticks (required); Hop
	// is the stride (0 = tumbling); Debounce suppresses re-detections
	// (0 = window width, negative = none); MinTriggers is the relevant-
	// packet threshold per window (0 = 1).
	Window      int64 `json:"window"`
	Hop         int64 `json:"hop,omitempty"`
	Debounce    int64 `json:"debounce,omitempty"`
	MinTriggers int64 `json:"min_triggers,omitempty"`
	// Lookback widens each repair's replay window by this many ticks
	// before the flagged window; absent or negative means back to the
	// stream's start.
	Lookback *int64 `json:"lookback,omitempty"`
	// MaxRepairs bounds concurrent auto-repairs (0 = 1). Detections
	// beyond it surface as watch.suppressed events.
	MaxRepairs int `json:"max_repairs,omitempty"`
	// RepairTimeoutMS bounds each auto-launched attempt's run time.
	RepairTimeoutMS int64 `json:"repair_timeout_ms,omitempty"`
	// Label is free-form display text (default: the scenario name).
	Label string `json:"label,omitempty"`
}

// watchRecord is one registered watch: the running loop, its SSE event
// log, and terminal bookkeeping.
type watchRecord struct {
	id       string
	tenant   string
	trace    string
	scenario string
	scale    string
	label    string
	created  time.Time
	log      *eventLog
	watcher  *metarepair.Watcher
	cancel   context.CancelFunc
	done     chan struct{}

	mu    sync.Mutex
	state string // "running" or "stopped"
	err   string
}

func (rec *watchRecord) status() watchStatus {
	rec.mu.Lock()
	state, errMsg := rec.state, rec.err
	rec.mu.Unlock()
	st := rec.watcher.Stats()
	return watchStatus{
		ID: rec.id, Tenant: rec.tenant, Trace: rec.trace,
		Scenario: rec.scenario, Scale: rec.scale, Label: rec.label,
		State: state, Created: rec.created, Error: errMsg,
		Stats: watchStatsJSON{
			Entries: st.Entries, Windows: st.Windows,
			Detections: st.Detections, Debounced: st.Debounced,
			SkippedSegments: st.SkippedSegments, Suppressed: st.Suppressed,
			Launched: st.Launched, Validated: st.Validated,
			Unvalidated: st.Unvalidated, Failed: st.Failed,
		},
	}
}

// watchStatus is the wire form of one watch (create, get, and list
// responses all use it).
type watchStatus struct {
	ID       string         `json:"id"`
	Tenant   string         `json:"tenant"`
	Trace    string         `json:"trace"`
	Scenario string         `json:"scenario"`
	Scale    string         `json:"scale"`
	Label    string         `json:"label,omitempty"`
	State    string         `json:"state"`
	Created  time.Time      `json:"created"`
	Error    string         `json:"error,omitempty"`
	Stats    watchStatsJSON `json:"stats"`
}

type watchStatsJSON struct {
	Entries         int64 `json:"entries"`
	Windows         int64 `json:"windows"`
	Detections      int64 `json:"detections"`
	Debounced       int64 `json:"debounced"`
	SkippedSegments int64 `json:"skipped_segments"`
	Suppressed      int64 `json:"suppressed"`
	Launched        int64 `json:"launched"`
	Validated       int64 `json:"validated"`
	Unvalidated     int64 `json:"unvalidated"`
	Failed          int64 `json:"failed"`
}

// handleCreateWatch registers and starts a self-healing watch: a live
// tail over the tenant's trace evaluating the scenario's symptom over
// sliding windows, auto-submitting a first-accepted repair job for each
// flagged window.
func (s *server) handleCreateWatch(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	if !tracestore.ValidName(tenant) {
		writeError(w, http.StatusBadRequest, "invalid tenant %q", tenant)
		return
	}
	var req watchRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	if req.Trace == "" {
		writeError(w, http.StatusBadRequest, "watch needs a trace to follow")
		return
	}
	spec, err := s.registry.Lookup(req.Scenario)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts, err := req.options()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	scale, err := req.scale()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sc, err := spec.Instantiate(scale)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st, err := s.tenants.Open(tenant, req.Trace)
	if errors.Is(err, tracestore.ErrBadName) {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "opening store: %v", err)
		return
	}

	lookback := int64(1) << 40 // further back than any realistic tick clock
	if req.Lookback != nil && *req.Lookback >= 0 {
		lookback = *req.Lookback
	}

	s.watchMu.Lock()
	s.watchSeq++
	id := fmt.Sprintf("w-%06d", s.watchSeq)
	s.watchMu.Unlock()

	rec := &watchRecord{
		id: id, tenant: tenant, trace: req.Trace,
		scenario: spec.Name, scale: scale.String(), label: req.Label,
		created: time.Now(), log: newEventLog(),
		done: make(chan struct{}), state: "running",
	}
	repairTimeout := time.Duration(req.RepairTimeoutMS) * time.Millisecond
	watcher, err := metarepair.NewWatcher(metarepair.WatchConfig{
		Label:         req.Label,
		Scenario:      spec.Name,
		Store:         st,
		Program:       sc.Prog,
		Symptom:       sc.Symptom(),
		BuildNet:      sc.BuildNet,
		State:         sc.State,
		Effective:     sc.Effective,
		MinTriggers:   req.MinTriggers,
		Window:        req.Window,
		Hop:           req.Hop,
		Debounce:      req.Debounce,
		Lookback:      lookback,
		MaxConcurrent: req.MaxRepairs,
		Sink:          rec.log,
		Metrics:       s.metrics.watches,
		Options:       append(sc.Options, opts...),
		Launch: func(d metarepair.Detection, run func(ctx context.Context) (*metarepair.Report, error)) error {
			label := fmt.Sprintf("auto-repair %s [%d, %d]", spec.Name, d.From, d.To)
			_, err := s.engine.Submit(tenant, label, newEventLog(), func(ctx context.Context) (any, error) {
				if repairTimeout > 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, repairTimeout)
					defer cancel()
				}
				rep, err := run(ctx)
				if err != nil {
					return nil, err
				}
				return reportFromRepair(spec.Name, scale, rep), nil
			})
			return err
		},
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rec.watcher = watcher

	ctx, cancel := context.WithCancel(context.Background())
	rec.cancel = cancel
	s.watchMu.Lock()
	s.watches[id] = rec
	s.watchMu.Unlock()
	s.metrics.sessions.TrackFanout("watch:"+id, rec.log.fan)
	s.metrics.watches.Watches.Add(1)
	go func() {
		err := watcher.Run(ctx)
		rec.mu.Lock()
		rec.state = "stopped"
		if err != nil && !errors.Is(err, context.Canceled) {
			rec.err = err.Error()
		}
		rec.mu.Unlock()
		s.metrics.watches.Watches.Add(-1)
		rec.log.close()
		close(rec.done)
	}()
	writeJSON(w, http.StatusCreated, rec.status())
}

func (s *server) lookupWatch(id string) *watchRecord {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	return s.watches[id]
}

func (s *server) handleListWatches(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	s.watchMu.Lock()
	recs := make([]*watchRecord, 0, len(s.watches))
	for _, rec := range s.watches {
		if rec.tenant == tenant {
			recs = append(recs, rec)
		}
	}
	s.watchMu.Unlock()
	out := make([]watchStatus, 0, len(recs))
	for _, rec := range recs {
		out = append(out, rec.status())
	}
	// Stable id order for a readable listing.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	writeJSON(w, http.StatusOK, map[string][]watchStatus{"watches": out})
}

func (s *server) handleGetWatch(w http.ResponseWriter, r *http.Request) {
	rec := s.lookupWatch(r.PathValue("id"))
	if rec == nil {
		writeError(w, http.StatusNotFound, "no such watch %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, rec.status())
}

// handleStopWatch cancels the watch loop. The record (and its event
// history) remains readable; repairs already submitted to the job
// engine finish on their own.
func (s *server) handleStopWatch(w http.ResponseWriter, r *http.Request) {
	rec := s.lookupWatch(r.PathValue("id"))
	if rec == nil {
		writeError(w, http.StatusNotFound, "no such watch %q", r.PathValue("id"))
		return
	}
	rec.cancel()
	<-rec.done
	s.metrics.sessions.UntrackFanout("watch:" + rec.id)
	writeJSON(w, http.StatusOK, rec.status())
}

// handleWatchEvents streams the watch's event log as SSE — detections,
// suppressions, and repair verdicts as they happen — until the watch
// stops (see streamEvents).
func (s *server) handleWatchEvents(w http.ResponseWriter, r *http.Request) {
	rec := s.lookupWatch(r.PathValue("id"))
	if rec == nil {
		writeError(w, http.StatusNotFound, "no such watch %q", r.PathValue("id"))
		return
	}
	s.streamEvents(w, r, rec.log)
}

// handleScenarios lists the registered scenario catalogue: the names a
// job or watch request may reference, with each spec's diagnostic query.
func (s *server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	specs := s.registry.Specs()
	type scenarioInfo struct {
		Name  string `json:"name"`
		Query string `json:"query,omitempty"`
	}
	out := make([]scenarioInfo, 0, len(specs))
	for _, sp := range specs {
		out = append(out, scenarioInfo{Name: sp.Name, Query: sp.Query})
	}
	writeJSON(w, http.StatusOK, map[string][]scenarioInfo{"scenarios": out})
}

// stopWatches cancels every running watch and waits (bounded by ctx)
// for their loops to unwind — shutdown runs this before draining the
// job engine so watches stop submitting new repairs first.
func (s *server) stopWatches(ctx context.Context) {
	s.watchMu.Lock()
	recs := make([]*watchRecord, 0, len(s.watches))
	for _, rec := range s.watches {
		recs = append(recs, rec)
	}
	s.watchMu.Unlock()
	for _, rec := range recs {
		rec.cancel()
	}
	for _, rec := range recs {
		select {
		case <-rec.done:
		case <-ctx.Done():
			return
		}
	}
}

// reportFromRepair is reportFromOutcome for a bare watch-launched
// repair report (no scenario Outcome wrapper).
func reportFromRepair(name string, scale scenario.Scale, rep *metarepair.Report) *reportJSON {
	r := &reportJSON{
		Scenario: name, Scale: scale.String(),
		Generated: rep.Generated, Filtered: rep.Filtered, Dropped: rep.Dropped,
		Accepted: rep.Accepted, Batches: rep.Batches, Steps: rep.Steps,
		EarlyStopped: rep.EarlyStopped, Evaluated: rep.Evaluated,
		Suggestions: make([]suggestionJSON, 0, len(rep.Suggestions)),
		Results:     make([]resultJSON, 0, len(rep.Results)),
		Timing:      timingFromReport(rep.Timing),
	}
	for _, sg := range rep.Suggestions {
		r.Suggestions = append(r.Suggestions, suggestionJSON{
			Rank: sg.Rank, Index: sg.Index, Batch: sg.Batch,
			Desc: sg.Candidate.Describe(), Cost: sg.Candidate.Cost,
			Accepted: sg.Result.Accepted, KS: sg.Result.KS, P: sg.Result.P,
		})
	}
	for i, res := range rep.Results {
		r.Results = append(r.Results, resultJSON{
			Desc: res.Candidate.Describe(), Cost: res.Candidate.Cost,
			Accepted: res.Accepted, Effective: res.Effective, KS: res.KS,
			Evaluated: rep.IsEvaluated(i),
		})
	}
	return r
}
