package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/metarepair"
	"repro/scenario"
)

// testScale keeps API-test repairs fast: Q1 at 19 switches and a small
// flow count still generates and backtests the full candidate set.
var testScale = scenario.Scale{Switches: 19, Flows: 200}

// newTestServer builds a daemon around a fresh registry (Q1 plus a
// slow-running clone for cancellation tests) and a temp data dir.
func newTestServer(t *testing.T, cfg jobs.Config) (*server, *httptest.Server) {
	t.Helper()
	reg := scenario.NewRegistry()
	reg.MustRegister(scenario.Q1Spec())
	slow := scenario.Q1Spec()
	slow.Name = "Q1slow"
	reg.MustRegister(slow)

	tenants, err := tracestore.OpenTenants(t.TempDir(), tracestore.Options{})
	if err != nil {
		t.Fatalf("OpenTenants: %v", err)
	}
	srv := newServer(reg, tenants, cfg, false)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.engine.Close()
		tenants.CloseAll()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp.StatusCode
}

func submitJob(t *testing.T, ts *httptest.Server, tenant string, req jobRequest) jobStatus {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/v1/tenants/"+tenant+"/jobs", req)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var st jobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit: decoding: %v", err)
	}
	return st
}

// waitJob polls the status endpoint until the job leaves the live states.
func waitJob(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var st jobStatus
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if st.State != "queued" && st.State != "running" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobLifecycle walks the happy path: submit → queued/running →
// succeeded with a full report whose accepted repair is the scenario's
// intuitive fix, visible in the tenant's job list.
func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, jobs.Config{Workers: 2})
	st := submitJob(t, ts, "acme", jobRequest{
		repairRequest: repairRequest{Scenario: "Q1", Switches: testScale.Switches, Flows: testScale.Flows},
	})
	if st.State != "queued" || st.ID == "" || st.Tenant != "acme" {
		t.Fatalf("submit response: %+v", st)
	}
	if st.Label != fmt.Sprintf("Q1@%s", testScale) {
		t.Fatalf("default label = %q", st.Label)
	}
	final := waitJob(t, ts, st.ID)
	if final.State != "succeeded" {
		t.Fatalf("job ended %s (%s)", final.State, final.Error)
	}
	rep := final.Report
	if rep == nil {
		t.Fatal("succeeded job has no report")
	}
	if rep.Accepted == 0 || len(rep.Suggestions) == 0 || len(rep.Results) == 0 {
		t.Fatalf("report is empty: %+v", rep)
	}
	if !rep.Suggestions[0].Accepted {
		t.Fatalf("ranking violated: first suggestion rejected: %+v", rep.Suggestions[0])
	}
	fix := scenario.Q1Spec().IntuitiveFix
	found := false
	for _, r := range rep.Results {
		if r.Accepted && strings.Contains(r.Desc, fix) {
			found = true
		}
	}
	if !found {
		t.Fatalf("intuitive fix %q not among accepted results", fix)
	}
	var list struct{ Jobs []jobStatus }
	getJSON(t, ts.URL+"/v1/tenants/acme/jobs", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Fatalf("tenant job list: %+v", list.Jobs)
	}
}

// TestVerdictParityAcrossTenants is the acceptance criterion: 16
// concurrent repair jobs across 4 tenants, every report verdict-identical
// to a one-shot in-process run of the same scenario at the same scale.
func TestVerdictParityAcrossTenants(t *testing.T) {
	sc := scenario.Q1Spec().MustInstantiate(scenario.Scale{Switches: 19, Flows: 150})
	out, err := sc.Run(context.Background())
	if err != nil {
		t.Fatalf("one-shot run: %v", err)
	}
	want := reportFromOutcome(out)

	_, ts := newTestServer(t, jobs.Config{Workers: 4, QueueCap: 64, TenantQueueCap: 8})
	var ids []string
	for i := 0; i < 16; i++ {
		st := submitJob(t, ts, fmt.Sprintf("tenant%d", i%4), jobRequest{
			repairRequest: repairRequest{Scenario: "Q1", Switches: 19, Flows: 150},
		})
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		final := waitJob(t, ts, id)
		if final.State != "succeeded" {
			t.Fatalf("job %s ended %s (%s)", id, final.State, final.Error)
		}
		got := final.Report
		if got.Generated != want.Generated || got.Accepted != want.Accepted {
			t.Fatalf("job %s: %d/%d generated/accepted, want %d/%d",
				id, got.Generated, got.Accepted, want.Generated, want.Accepted)
		}
		if len(got.Results) != len(want.Results) {
			t.Fatalf("job %s: %d results, want %d", id, len(got.Results), len(want.Results))
		}
		for i := range got.Results {
			g, w := got.Results[i], want.Results[i]
			if g.Desc != w.Desc || g.Accepted != w.Accepted || g.KS != w.KS {
				t.Fatalf("job %s: result %d diverges:\n  got  %+v\n  want %+v", id, i, g, w)
			}
		}
	}
}

// TestCancelJob cancels a long-running repair over HTTP and expects the
// record to land in cancelled (not failed), with the SSE stream ending.
func TestCancelJob(t *testing.T) {
	_, ts := newTestServer(t, jobs.Config{Workers: 1})
	st := submitJob(t, ts, "acme", jobRequest{repairRequest: repairRequest{Scenario: "Q1slow", Switches: 19, Flows: 4000}})
	// Wait for the job to start running before cancelling.
	deadline := time.Now().Add(time.Minute)
	for {
		var cur jobStatus
		getJSON(t, ts.URL+"/v1/jobs/"+st.ID, &cur)
		if cur.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %s", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	final := waitJob(t, ts, st.ID)
	if final.State != "cancelled" {
		t.Fatalf("cancelled job ended %s (%s)", final.State, final.Error)
	}
	if final.Report != nil {
		t.Fatal("cancelled job carries a report")
	}
}

// TestQuotaRejection: with one worker and a per-tenant queue cap of 1,
// the third submission is rejected 429 — while another tenant still gets
// in.
func TestQuotaRejection(t *testing.T) {
	_, ts := newTestServer(t, jobs.Config{Workers: 1, QueueCap: 8, TenantQueueCap: 1})
	running := submitJob(t, ts, "acme", jobRequest{repairRequest: repairRequest{Scenario: "Q1slow", Switches: 19, Flows: 4000}})
	queued := submitJob(t, ts, "acme", jobRequest{repairRequest: repairRequest{Scenario: "Q1", Switches: 19, Flows: 150}})
	resp, body := postJSON(t, ts.URL+"/v1/tenants/acme/jobs",
		jobRequest{repairRequest: repairRequest{Scenario: "Q1", Switches: 19, Flows: 150}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("queue cap")) {
		t.Fatalf("429 body does not explain the quota: %s", body)
	}
	// Another tenant is not starved by acme's cap.
	other := submitJob(t, ts, "globex", jobRequest{repairRequest: repairRequest{Scenario: "Q1", Switches: 19, Flows: 150}})
	for _, id := range []string{running.ID, queued.ID, other.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
}

// TestNotFoundAndBadRequests covers the API's rejection surface.
func TestNotFoundAndBadRequests(t *testing.T) {
	_, ts := newTestServer(t, jobs.Config{Workers: 1})
	if code := getJSON(t, ts.URL+"/v1/jobs/j-999999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job GET: %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/j-999999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job DELETE: %d", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/j-999999/events", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job events: %d", code)
	}

	resp2, body := postJSON(t, ts.URL+"/v1/tenants/acme/jobs", jobRequest{repairRequest: repairRequest{Scenario: "nope"}})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown scenario: status %d", resp2.StatusCode)
	}
	if !bytes.Contains(body, []byte("registered:")) {
		t.Fatalf("unknown-scenario error lacks the menu: %s", body)
	}
	resp3, _ := postJSON(t, ts.URL+"/v1/tenants/acme/jobs",
		jobRequest{repairRequest: repairRequest{Scenario: "Q1"}, Pipeline: "bogus"})
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad pipeline: status %d", resp3.StatusCode)
	}
	resp4, _ := postJSON(t, ts.URL+"/v1/tenants/UPPER/jobs", jobRequest{repairRequest: repairRequest{Scenario: "Q1"}})
	if resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad tenant name: status %d", resp4.StatusCode)
	}
	resp5, body := postJSON(t, ts.URL+"/v1/tenants/acme/jobs",
		jobRequest{repairRequest: repairRequest{Scenario: "Q1"}, Trace: "missing"})
	if resp5.StatusCode != http.StatusNotFound {
		t.Fatalf("missing trace: status %d: %s", resp5.StatusCode, body)
	}
}

// TestIngestAndStoreBackedJob pushes a capture stream over HTTP, then
// runs a repair whose workload is replayed from the stored trace, and
// expects the same verdicts as the in-memory run.
func TestIngestAndStoreBackedJob(t *testing.T) {
	_, ts := newTestServer(t, jobs.Config{Workers: 2})
	sc := scenario.Q1Spec().MustInstantiate(testScale)

	var stream []byte
	var err error
	for _, e := range sc.Workload {
		if stream, err = tracestore.Binary.AppendRecord(stream, e); err != nil {
			t.Fatalf("encoding workload: %v", err)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/tenants/acme/traces/q1cap?format=binary",
		"application/octet-stream", bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	var ing ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatalf("ingest response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ing.Ingested != len(sc.Workload) {
		t.Fatalf("ingest: status %d, %+v (want %d entries)", resp.StatusCode, ing, len(sc.Workload))
	}
	var traces struct{ Traces []string }
	getJSON(t, ts.URL+"/v1/tenants/acme/traces", &traces)
	if len(traces.Traces) != 1 || traces.Traces[0] != "q1cap" {
		t.Fatalf("trace list: %+v", traces.Traces)
	}

	out, err := sc.Run(context.Background())
	if err != nil {
		t.Fatalf("in-memory run: %v", err)
	}
	want := reportFromOutcome(out)

	st := submitJob(t, ts, "acme", jobRequest{
		repairRequest: repairRequest{Scenario: "Q1", Switches: testScale.Switches, Flows: testScale.Flows},
		Trace:         "q1cap",
	})
	final := waitJob(t, ts, st.ID)
	if final.State != "succeeded" {
		t.Fatalf("store-backed job ended %s (%s)", final.State, final.Error)
	}
	got := final.Report
	if len(got.Results) != len(want.Results) {
		t.Fatalf("store-backed run: %d results, want %d", len(got.Results), len(want.Results))
	}
	for i := range got.Results {
		if got.Results[i].Desc != want.Results[i].Desc ||
			got.Results[i].Accepted != want.Results[i].Accepted {
			t.Fatalf("store-backed verdict %d diverges: %+v vs %+v",
				i, got.Results[i], want.Results[i])
		}
	}
}

// TestInvertedReplayWindowRejected: a store-backed job whose window has
// from above to would replay nothing and report "no repair" for traffic
// it never saw, so intake answers 400 and queues no job.
func TestInvertedReplayWindowRejected(t *testing.T) {
	_, ts := newTestServer(t, jobs.Config{Workers: 1})
	sc := scenario.Q1Spec().MustInstantiate(testScale)
	var stream []byte
	var err error
	for _, e := range sc.Workload[:5] {
		if stream, err = tracestore.Binary.AppendRecord(stream, e); err != nil {
			t.Fatalf("encoding workload: %v", err)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/tenants/acme/traces/q1cap?format=binary",
		"application/octet-stream", bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}

	from, to := int64(10), int64(5)
	resp2, body := postJSON(t, ts.URL+"/v1/tenants/acme/jobs", jobRequest{
		repairRequest: repairRequest{Scenario: "Q1", Switches: testScale.Switches, Flows: testScale.Flows},
		Trace:         "q1cap", From: &from, To: &to,
	})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("inverted window: status %d (%s), want 400", resp2.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("from 10 exceeds to 5")) {
		t.Fatalf("inverted-window error %q does not name the bounds", body)
	}
	var list struct{ Jobs []jobStatus }
	getJSON(t, ts.URL+"/v1/tenants/acme/jobs", &list)
	if len(list.Jobs) != 0 {
		t.Fatalf("rejected request queued %d job(s)", len(list.Jobs))
	}
}

// TestIngestBadRecordKeepsDurablePrefix: a body whose records turn to
// garbage part-way is answered 400 naming the first bad record, and the
// records before it are on disk — flushed and synced, not buffered —
// by the time the answer arrives.
func TestIngestBadRecordKeepsDurablePrefix(t *testing.T) {
	srv, ts := newTestServer(t, jobs.Config{Workers: 1})
	sc := scenario.Q1Spec().MustInstantiate(testScale)
	var body []byte
	var err error
	for _, e := range sc.Workload[:5] {
		if body, err = tracestore.Binary.AppendRecord(body, e); err != nil {
			t.Fatalf("encoding workload: %v", err)
		}
	}
	body = append(body, bytes.Repeat([]byte{0xAB}, 30)...)

	resp, err := http.Post(ts.URL+"/v1/tenants/acme/traces/torn",
		"application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ingest: status %d (%s), want 400", resp.StatusCode, msg)
	}
	if !strings.Contains(string(msg), "record 5") {
		t.Fatalf("ingest error %q does not name record 5", msg)
	}
	st, err := srv.tenants.Lookup("acme", "torn")
	if err != nil || st == nil {
		t.Fatalf("store after ingest: %v, %v", st, err)
	}
	seg := filepath.Join(st.Dir(), "seg-00000000"+st.Codec().Ext())
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(5 * trace.RecordSize); fi.Size() != want {
		t.Fatalf("segment on disk holds %d bytes before Close, want %d", fi.Size(), want)
	}
}

// FuzzIngest posts arbitrary bodies to the ingest handler under both
// formats. The answer is 200 or 400, never a panic or a 500. On 200 every
// record of the body is ingested; on 400 the record the error names is
// the length of the body's intact prefix, and the store holds exactly
// that prefix, in order. The prefix is read without the store's decoders:
// trace.DecodeRecord over 120-byte slices, json.Unmarshal over lines.
func FuzzIngest(f *testing.F) {
	sc := scenario.Q1Spec().MustInstantiate(testScale)
	var bin, lines []byte
	for _, e := range sc.Workload[:5] {
		var err error
		if bin, err = tracestore.Binary.AppendRecord(bin, e); err != nil {
			f.Fatal(err)
		}
		if lines, err = tracestore.JSONL.AppendRecord(lines, e); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(false, append(bytes.Clone(bin), bytes.Repeat([]byte{0xAB}, 30)...)) // TestIngestBadRecordKeepsDurablePrefix's body
	f.Add(false, bin)
	f.Add(true, append(bytes.Clone(lines), `{"t":1,"h":"h1"`...))
	f.Add(true, lines)
	f.Add(true, []byte(`{"h":"`+strings.Repeat("x", trace.MaxHostLen+1)+`"}`+"\n"))

	tenants, err := tracestore.OpenTenants(f.TempDir(), tracestore.Options{})
	if err != nil {
		f.Fatal(err)
	}
	srv := newServer(scenario.NewRegistry(), tenants, jobs.Config{Workers: 1}, false)
	f.Cleanup(func() {
		srv.engine.Close()
		tenants.CloseAll()
	})
	var traces atomic.Int64
	f.Fuzz(func(t *testing.T, jsonl bool, body []byte) {
		format, prefix := "binary", binaryPrefix
		if jsonl {
			format, prefix = "jsonl", jsonlPrefix
		}
		want, whole := prefix(body)
		name := fmt.Sprintf("t%d", traces.Add(1))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost,
			"/v1/tenants/fuzz/traces/"+name+"?format="+format, bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK:
			var resp ingestResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body %q: %v", w.Body, err)
			}
			if !whole || resp.Ingested != len(want) {
				t.Fatalf("200 ingested %d records; the body holds %d intact (whole: %v)", resp.Ingested, len(want), whole)
			}
		case http.StatusBadRequest:
			var resp struct{ Error string }
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("400 body %q: %v", w.Body, err)
			}
			var named int
			if _, err := fmt.Sscanf(resp.Error, "record %d:", &named); err != nil {
				t.Fatalf("400 %q names no record", resp.Error)
			}
			if whole || named != len(want) {
				t.Fatalf("400 names record %d; the body's intact prefix is %d (whole: %v)", named, len(want), whole)
			}
		default:
			t.Fatalf("ingest answered %d: %s", w.Code, w.Body)
		}
		st, err := tenants.Lookup("fuzz", name)
		if err != nil || st == nil {
			t.Fatalf("store after ingest: %v, %v", st, err)
		}
		defer st.Close()
		var got []trace.Entry
		if err := st.Source().Scan(func(e trace.Entry) error {
			got = append(got, e)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("store holds %d entries %v, want the intact prefix %v", len(got), got, want)
		}
	})
}

// binaryPrefix decodes body's leading whole binary records and reports
// whether they are all of it.
func binaryPrefix(body []byte) (entries []trace.Entry, whole bool) {
	for len(body) >= trace.RecordSize {
		e, err := trace.DecodeRecord(body[:trace.RecordSize])
		if err != nil {
			return entries, false
		}
		entries = append(entries, e)
		body = body[trace.RecordSize:]
	}
	return entries, len(body) == 0
}

// jsonlPrefix decodes body's leading JSON lines the daemon's binary store
// can hold and reports whether they are all of it.
func jsonlPrefix(body []byte) (entries []trace.Entry, whole bool) {
	for len(body) > 0 {
		line, rest, ok := bytes.Cut(body, []byte{'\n'})
		if !ok {
			return entries, false
		}
		var r struct {
			T   int64  `json:"t"`
			H   string `json:"h"`
			SIP int64  `json:"sip"`
			DIP int64  `json:"dip"`
			SPT int64  `json:"spt"`
			DPT int64  `json:"dpt"`
			PR  int64  `json:"pr"`
		}
		if json.Unmarshal(line, &r) != nil || len(r.H) > trace.MaxHostLen {
			return entries, false
		}
		e := trace.Entry{Time: r.T, SrcHost: r.H}
		e.Pkt.SrcIP, e.Pkt.DstIP, e.Pkt.SrcPort, e.Pkt.DstPort, e.Pkt.Proto = r.SIP, r.DIP, r.SPT, r.DPT, r.PR
		entries = append(entries, e)
		body = rest
	}
	return entries, true
}

// readSSE consumes an SSE stream to EOF and decodes each data: line.
func readSSE(t *testing.T, url string) []metarepair.Event {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	var events []metarepair.Event
	scan := bufio.NewScanner(resp.Body)
	scan.Buffer(make([]byte, 1<<20), 1<<20)
	for scan.Scan() {
		line := scan.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e metarepair.Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &e); err != nil {
			t.Fatalf("SSE event %q: %v", line, err)
		}
		events = append(events, e)
	}
	if err := scan.Err(); err != nil {
		t.Fatalf("SSE read: %v", err)
	}
	return events
}

// TestSSEMatchesSessionEvents runs one deterministic repair (barrier
// pipeline, single-threaded explore and backtest) while an SSE client is
// attached from submission, and requires the streamed pipeline events to
// equal the event sequence a one-shot in-process run emits through its
// own sink — plus the daemon's job.* lifecycle frames in state order.
func TestSSEMatchesSessionEvents(t *testing.T) {
	deterministic := jobRequest{
		repairRequest: repairRequest{Scenario: "Q1", Switches: testScale.Switches, Flows: testScale.Flows, Parallelism: 1, ExploreWorkers: 1},
		Pipeline:      "barrier",
	}

	// One-shot baseline with an in-process sink and identical options.
	sc := scenario.Q1Spec().MustInstantiate(testScale)
	var mu sync.Mutex
	var want []metarepair.Event
	_, err := sc.Run(context.Background(),
		metarepair.WithPipelineMode(metarepair.PipelineBarrier),
		metarepair.WithParallelism(1),
		metarepair.WithExploreWorkers(1),
		metarepair.WithEventSink(metarepair.SinkFunc(func(e metarepair.Event) {
			mu.Lock()
			want = append(want, e)
			mu.Unlock()
		})))
	if err != nil {
		t.Fatalf("one-shot run: %v", err)
	}

	_, ts := newTestServer(t, jobs.Config{Workers: 1})
	st := submitJob(t, ts, "acme", deterministic)
	streamed := readSSE(t, ts.URL+"/v1/jobs/"+st.ID+"/events")

	var lifecycle []string
	var got []metarepair.Event
	for _, e := range streamed {
		if strings.HasPrefix(e.Kind, "job.") {
			lifecycle = append(lifecycle, e.Kind)
			continue
		}
		got = append(got, e)
	}
	wantLifecycle := []string{"job.queued", "job.running", "job.succeeded"}
	if strings.Join(lifecycle, ",") != strings.Join(wantLifecycle, ",") {
		t.Fatalf("lifecycle frames %v, want %v", lifecycle, wantLifecycle)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d pipeline events, one-shot emitted %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		// Wall-clock fields differ run to run; everything else must match.
		g.Time, w.Time = time.Time{}, time.Time{}
		g.Elapsed, w.Elapsed = 0, 0
		if g != w {
			t.Fatalf("event %d diverges:\n  SSE:      %+v\n  one-shot: %+v", i, g, w)
		}
	}
	// A late subscriber to the finished job replays the same history.
	replay := readSSE(t, ts.URL+"/v1/jobs/"+st.ID+"/events")
	if len(replay) != len(streamed) {
		t.Fatalf("replayed %d events, live stream had %d", len(replay), len(streamed))
	}
}

// TestDrainingRejectsSubmits: once shutdown starts, submissions get 503.
func TestDrainingRejectsSubmits(t *testing.T) {
	srv, ts := newTestServer(t, jobs.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/tenants/acme/jobs", jobRequest{repairRequest: repairRequest{Scenario: "Q1"}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d", resp.StatusCode)
	}
}

// TestHealthz sanity-checks the stats endpoint.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, jobs.Config{Workers: 3})
	var h struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if h.Status != "ok" || h.Workers != 3 {
		t.Fatalf("healthz: %+v", h)
	}
}
