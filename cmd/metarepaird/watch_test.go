package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/sentinel"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/scenario"
)

// TestScenarioCatalogue checks GET /scenarios lists every registered
// spec with its diagnostic query — the names a watch or job may use.
func TestScenarioCatalogue(t *testing.T) {
	_, ts := newTestServer(t, jobs.Config{Workers: 1})
	var cat struct {
		Scenarios []struct {
			Name  string `json:"name"`
			Query string `json:"query"`
		} `json:"scenarios"`
	}
	if code := getJSON(t, ts.URL+"/scenarios", &cat); code != http.StatusOK {
		t.Fatalf("GET /scenarios: status %d", code)
	}
	byName := map[string]string{}
	for _, sp := range cat.Scenarios {
		byName[sp.Name] = sp.Query
	}
	for _, want := range []string{"Q1", "Q1slow"} {
		q, ok := byName[want]
		if !ok {
			t.Fatalf("catalogue missing %s: %+v", want, byName)
		}
		if q == "" {
			t.Fatalf("catalogue entry %s has no query", want)
		}
	}
}

// TestWatchValidation walks the create-watch 400 paths: malformed
// bodies must be rejected at intake, before any loop starts.
func TestWatchValidation(t *testing.T) {
	srv, ts := newTestServer(t, jobs.Config{Workers: 1})
	cases := []struct {
		name   string
		tenant string
		body   any
	}{
		{"missing trace", "acme", watchRequest{repairRequest: repairRequest{Scenario: "Q1"}, Window: 64}},
		{"unknown scenario", "acme", watchRequest{repairRequest: repairRequest{Scenario: "Q9"}, Trace: "live", Window: 64}},
		{"bad window", "acme", watchRequest{repairRequest: repairRequest{Scenario: "Q1"}, Trace: "live", Window: 0}},
		{"bad trace name", "acme", watchRequest{repairRequest: repairRequest{Scenario: "Q1"}, Trace: "NOPE", Window: 64}},
		{"bad tenant", "UPPER", watchRequest{repairRequest: repairRequest{Scenario: "Q1"}, Trace: "live", Window: 64}},
		{"bad batch", "acme", watchRequest{repairRequest: repairRequest{Scenario: "Q1", Batch: 9999}, Trace: "live", Window: 64}},
		{"unknown field", "acme", map[string]any{"scenario": "Q1", "trace": "live", "window": 64, "bogus": true}},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/tenants/"+tc.tenant+"/watches", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400): %s", tc.name, resp.StatusCode, body)
		}
	}
	srv.watchMu.Lock()
	n := len(srv.watches)
	srv.watchMu.Unlock()
	if n != 0 {
		t.Fatalf("rejected requests left %d watch records", n)
	}
	if code := getJSON(t, ts.URL+"/v1/watches/w-000001", nil); code != http.StatusNotFound {
		t.Fatalf("GET unknown watch: status %d (want 404)", code)
	}
}

// ingestEntries posts a batch of entries to the tenant's named trace in
// the binary capture format.
func ingestEntries(t *testing.T, ts *httptest.Server, tenant, name string, entries []trace.Entry) {
	t.Helper()
	var stream []byte
	var err error
	for _, e := range entries {
		if stream, err = tracestore.Binary.AppendRecord(stream, e); err != nil {
			t.Fatalf("encoding entry: %v", err)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/tenants/"+tenant+"/traces/"+name+"?format=binary",
		"application/octet-stream", bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	defer resp.Body.Close()
	var ing ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatalf("ingest response: %v", err)
	}
	if resp.StatusCode != http.StatusOK || ing.Ingested != len(entries) {
		t.Fatalf("ingest: status %d, %+v (want %d entries)", resp.StatusCode, ing, len(entries))
	}
}

// TestWatchSelfHealsThroughDaemon is the daemon-side self-healing path:
// register a watch on a live trace, stream healthy traffic, inject the
// symptom mid-stream, and require the watch to detect it, auto-submit a
// first-accepted repair job, and report a validated patch — with the
// full story visible on the watch's SSE stream and in the job list.
func TestWatchSelfHealsThroughDaemon(t *testing.T) {
	_, ts := newTestServer(t, jobs.Config{Workers: 2})
	sc := scenario.Q1Spec().MustInstantiate(testScale)

	// Arrival order: time-sorted, healthy traffic first, symptom traffic
	// last, restamped to a single tick clock — the fault appears
	// mid-stream the way a live capture would deliver it.
	trigger := sentinel.TriggerFromGoal(sc.Goal)
	if trigger == nil {
		t.Fatal("Q1 goal derives no trigger")
	}
	stream := append([]trace.Entry(nil), sc.Workload...)
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].Time < stream[j].Time })
	var healthy, faulty []trace.Entry
	for _, e := range stream {
		if trigger(e) {
			faulty = append(faulty, e)
		} else {
			healthy = append(healthy, e)
		}
	}
	ordered := append(healthy, faulty...)
	for i := range ordered {
		ordered[i].Time = int64(i + 1)
	}

	// Watch before first ingest: registration must create the store.
	resp, body := postJSON(t, ts.URL+"/v1/tenants/acme/watches", watchRequest{
		repairRequest: repairRequest{Scenario: "Q1", Switches: testScale.Switches, Flows: testScale.Flows},
		Trace:         "live", Window: 64, MaxRepairs: 2, Label: "q1 self-heal",
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create watch: status %d: %s", resp.StatusCode, body)
	}
	var st watchStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("create watch: decoding: %v", err)
	}
	if st.State != "running" || st.Tenant != "acme" || st.Trace != "live" {
		t.Fatalf("create watch: %+v", st)
	}
	var list struct {
		Watches []watchStatus `json:"watches"`
	}
	getJSON(t, ts.URL+"/v1/tenants/acme/watches", &list)
	if len(list.Watches) != 1 || list.Watches[0].ID != st.ID {
		t.Fatalf("watch list: %+v", list.Watches)
	}

	ingestEntries(t, ts, "acme", "live", ordered[:len(healthy)])
	ingestEntries(t, ts, "acme", "live", ordered[len(healthy):])

	// The watch should detect the symptom and drive a repair through the
	// job engine to a validated verdict.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if getJSON(t, ts.URL+"/v1/watches/"+st.ID, &st); st.Stats.Validated >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no validated repair: %+v", st.Stats)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.Stats.Detections == 0 || st.Stats.Launched == 0 {
		t.Fatalf("stats inconsistent: %+v", st.Stats)
	}

	// The auto-repair ran as a tenant job with an accepted patch in its
	// report.
	var jl struct {
		Jobs []jobStatus `json:"jobs"`
	}
	getJSON(t, ts.URL+"/v1/tenants/acme/jobs", &jl)
	var repairJob *jobStatus
	for i := range jl.Jobs {
		if strings.HasPrefix(jl.Jobs[i].Label, "auto-repair Q1") {
			repairJob = &jl.Jobs[i]
			break
		}
	}
	if repairJob == nil {
		t.Fatalf("no auto-repair job in list: %+v", jl.Jobs)
	}
	final := waitJob(t, ts, repairJob.ID)
	if final.State != "succeeded" {
		t.Fatalf("auto-repair job ended %s (%s)", final.State, final.Error)
	}
	if final.Report == nil || final.Report.Accepted == 0 {
		t.Fatalf("auto-repair report rejects every candidate: %+v", final.Report)
	}

	// Stop the watch; its record and event history stay readable.
	resp2, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/watches/"+st.ID, nil)
	if err != nil {
		t.Fatalf("DELETE request: %v", err)
	}
	dresp, err := http.DefaultClient.Do(resp2)
	if err != nil {
		t.Fatalf("DELETE watch: %v", err)
	}
	var stopped watchStatus
	if err := json.NewDecoder(dresp.Body).Decode(&stopped); err != nil {
		t.Fatalf("DELETE watch: decoding: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || stopped.State != "stopped" {
		t.Fatalf("DELETE watch: status %d, state %q", dresp.StatusCode, stopped.State)
	}
	if stopped.Stats.Entries != int64(len(ordered)) {
		t.Fatalf("watch consumed %d entries, want %d", stopped.Stats.Entries, len(ordered))
	}

	// The SSE stream replays the whole story: start, detection, repair
	// launch, and a validated verdict.
	events := readSSE(t, ts.URL+"/v1/watches/"+st.ID+"/events")
	kinds := map[string]bool{}
	validated := false
	for _, e := range events {
		kinds[e.Kind] = true
		if e.Kind == "watch.repair.done" && e.Accepted {
			validated = true
			if e.Elapsed <= 0 {
				t.Fatalf("repair.done without elapsed time: %+v", e)
			}
		}
	}
	for _, k := range []string{"watch.start", "watch.detect", "watch.repair.start", "watch.repair.done", "watch.stop"} {
		if !kinds[k] {
			t.Fatalf("SSE stream missing %s (have %v)", k, kinds)
		}
	}
	if !validated {
		t.Fatal("SSE stream has no accepted watch.repair.done")
	}
}
