package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/jobs"
	"repro/metarepair"
	"repro/scenario"
)

// Intake bounds. A job or watch body is a few hundred bytes of JSON, and the
// scale it names is instantiated in full (topo.Scaled clamps only from
// below), so both are capped before anything is built.
const (
	maxRequestBytes = 1 << 20
	maxSwitches     = 1024
	maxFlows        = 100000
)

// repairRequest is what the job and watch bodies share: which scenario at
// which scale, and the knobs the repair sessions run with. It is embedded,
// so its fields sit at the top level of both wire formats.
type repairRequest struct {
	// Scenario names a registered spec; Switches/Flows set the scale
	// (zero: the default 19sw/900fl).
	Scenario string `json:"scenario"`
	Switches int    `json:"switches,omitempty"`
	Flows    int    `json:"flows,omitempty"`
	// ExploreWorkers, Batch, Parallelism, and MaxCandidates map onto the
	// session options of the same names (zero keeps each default).
	ExploreWorkers int `json:"explore_workers,omitempty"`
	Batch          int `json:"batch,omitempty"`
	Parallelism    int `json:"parallelism,omitempty"`
	MaxCandidates  int `json:"max_candidates,omitempty"`
}

// jobRequest is the POST /v1/tenants/{tenant}/jobs body. Every field
// beyond Scenario is optional.
type jobRequest struct {
	repairRequest
	// Trace names a previously ingested trace of the same tenant to
	// stream the workload from; From/To window the replay by record
	// timestamp (tracestore.View.Window). From above To is a 400.
	Trace string `json:"trace,omitempty"`
	From  *int64 `json:"from,omitempty"`
	To    *int64 `json:"to,omitempty"`
	// Pipeline selects the explore→backtest composition: "streaming"
	// (default), "barrier", or "first-accepted".
	Pipeline string `json:"pipeline,omitempty"`
	// TimeoutMS bounds the job's own run time; an exceeded deadline is a
	// failed job (a DELETE is a cancelled one).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Label is free-form display text (default "<scenario>@<scale>").
	Label string `json:"label,omitempty"`
}

// options translates the request knobs into session options.
func (r *repairRequest) options() ([]metarepair.Option, error) {
	var opts []metarepair.Option
	if r.ExploreWorkers > 0 {
		opts = append(opts, metarepair.WithExploreWorkers(r.ExploreWorkers))
	}
	if r.Batch > 0 {
		opts = append(opts, metarepair.WithBatchSize(r.Batch))
	}
	if r.Parallelism > 0 {
		opts = append(opts, metarepair.WithParallelism(r.Parallelism))
	}
	if r.MaxCandidates > 0 {
		opts = append(opts, metarepair.WithMaxCandidates(r.MaxCandidates))
	}
	// Reject invalid knob combinations (e.g. a batch beyond the 63-tag
	// space) at intake, as a 400, instead of failing the job later.
	if err := metarepair.ValidateOptions(opts...); err != nil {
		return nil, err
	}
	return opts, nil
}

// scale resolves the requested scale with the registry defaults, refusing
// one beyond the intake bounds.
func (r *repairRequest) scale() (scenario.Scale, error) {
	sc := scenario.DefaultScale()
	if r.Switches > 0 {
		sc.Switches = r.Switches
	}
	if r.Flows > 0 {
		sc.Flows = r.Flows
	}
	if sc.Switches > maxSwitches {
		return sc, fmt.Errorf("switches %d exceeds the limit of %d", sc.Switches, maxSwitches)
	}
	if sc.Flows > maxFlows {
		return sc, fmt.Errorf("flows %d exceeds the limit of %d", sc.Flows, maxFlows)
	}
	return sc, nil
}

// decodeRequest decodes a job or watch body of at most maxRequestBytes into
// req, rejecting unknown fields. On failure it has written the response
// (413 for an oversized body, 400 otherwise) and returns false.
func decodeRequest(w http.ResponseWriter, r *http.Request, req any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(req)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxRequestBytes)
	case err != nil:
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
	}
	return err == nil
}

// jobStatus is the wire form of one job record (submit, status, cancel,
// and list responses all use it).
type jobStatus struct {
	ID       string      `json:"id"`
	Tenant   string      `json:"tenant"`
	Label    string      `json:"label,omitempty"`
	State    string      `json:"state"`
	Position int         `json:"position,omitempty"`
	Created  time.Time   `json:"created"`
	Started  *time.Time  `json:"started,omitempty"`
	Finished *time.Time  `json:"finished,omitempty"`
	Error    string      `json:"error,omitempty"`
	Report   *reportJSON `json:"report,omitempty"`
}

func statusFromJob(j jobs.Job) jobStatus {
	st := jobStatus{
		ID: j.ID, Tenant: j.Tenant, Label: j.Label,
		State: j.State.String(), Position: j.Position,
		Created: j.Created, Error: j.Err,
	}
	if !j.Started.IsZero() {
		t := j.Started
		st.Started = &t
	}
	if !j.Finished.IsZero() {
		t := j.Finished
		st.Finished = &t
	}
	if rep, ok := j.Result.(*reportJSON); ok {
		st.Report = rep
	}
	return st
}

// reportJSON is the wire form of a finished repair run: the ranked
// suggestion list (§5.3 order) plus the same verdicts in candidate/cost
// order, which is the row order every offline table — and the verdict-
// parity comparison against a one-shot CLI run — uses.
type reportJSON struct {
	Scenario     string           `json:"scenario"`
	Scale        string           `json:"scale"`
	Generated    int              `json:"generated"`
	Filtered     int              `json:"filtered,omitempty"`
	Dropped      int              `json:"dropped,omitempty"`
	Accepted     int              `json:"accepted"`
	Batches      int              `json:"batches"`
	Steps        int              `json:"steps"`
	EarlyStopped bool             `json:"early_stopped,omitempty"`
	Evaluated    int              `json:"evaluated"`
	Suggestions  []suggestionJSON `json:"suggestions"`
	Results      []resultJSON     `json:"results"`
	Timing       timingJSON       `json:"timing"`
}

type suggestionJSON struct {
	Rank     int     `json:"rank"`
	Index    int     `json:"index"`
	Batch    int     `json:"batch"`
	Desc     string  `json:"desc"`
	Cost     float64 `json:"cost"`
	Accepted bool    `json:"accepted"`
	KS       float64 `json:"ks"`
	P        float64 `json:"p"`
}

type resultJSON struct {
	Desc      string  `json:"desc"`
	Cost      float64 `json:"cost"`
	Accepted  bool    `json:"accepted"`
	Effective bool    `json:"effective"`
	KS        float64 `json:"ks"`
	Evaluated bool    `json:"evaluated"`
}

type timingJSON struct {
	HistoryMS float64 `json:"history_ms"`
	SolvingMS float64 `json:"solving_ms"`
	PatchMS   float64 `json:"patch_ms"`
	ReplayMS  float64 `json:"replay_ms"`
	OverlapMS float64 `json:"overlap_ms,omitempty"`
}

// timingFromReport converts a turnaround breakdown to milliseconds.
func timingFromReport(t metarepair.Timing) timingJSON {
	return timingJSON{
		HistoryMS: float64(t.HistoryLookups.Microseconds()) / 1e3,
		SolvingMS: float64(t.ConstraintSolving.Microseconds()) / 1e3,
		PatchMS:   float64(t.PatchGeneration.Microseconds()) / 1e3,
		ReplayMS:  float64(t.Replay.Microseconds()) / 1e3,
		OverlapMS: float64(t.Overlap.Microseconds()) / 1e3,
	}
}

func reportFromOutcome(out *scenario.Outcome) *reportJSON {
	r := reportFromRepair(out.Scenario.Name, out.Scenario.Scale, out.Report)
	// Outcome timing folds the diagnostic replay in; prefer it.
	r.Timing = timingFromReport(out.Timing)
	return r
}

// ingestResponse is the POST trace response: what this request appended
// and where the store stands afterwards.
type ingestResponse struct {
	Tenant   string `json:"tenant"`
	Trace    string `json:"trace"`
	Ingested int    `json:"ingested"`
	Entries  int64  `json:"entries"`
	Bytes    int64  `json:"bytes"`
	Segments int    `json:"segments"`
}

// writeJSON writes a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// writeError writes the daemon's uniform error body.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
