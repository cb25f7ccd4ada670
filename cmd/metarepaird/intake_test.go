package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/jobs"
	"repro/metarepair"
	"repro/scenario"
)

// The README's job and watch example bodies.
const (
	readmeJobBody   = `{"scenario":"Q1","switches":19,"flows":900,"trace":"q1cap"}`
	readmeWatchBody = `{"scenario":"Q1","trace":"live","window":64}`
)

// TestIntakeBounds: a body over the size cap is a 413 and a scale over the
// switch or flow cap a 400 naming the limit, on both routes, and neither
// queues a job nor registers a watch.
func TestIntakeBounds(t *testing.T) {
	srv, ts := newTestServer(t, jobs.Config{Workers: 1})
	// Each case is one more field on a body the route otherwise accepts.
	cases := []struct {
		name, field string
		status      int
		mentions    string
	}{
		{"switches over the cap", `"switches":100000000`, http.StatusBadRequest, fmt.Sprint(maxSwitches)},
		{"switches just over the cap", `"switches":1025`, http.StatusBadRequest, fmt.Sprint(maxSwitches)},
		{"flows over the cap", `"flows":100001`, http.StatusBadRequest, fmt.Sprint(maxFlows)},
		{"2 MiB body", `"label":"` + strings.Repeat("x", 2<<20) + `"`, http.StatusRequestEntityTooLarge, fmt.Sprint(maxRequestBytes)},
		{"not JSON", `switches=19`, http.StatusBadRequest, "decoding request"},
	}
	for route, accepted := range map[string]string{"jobs": `{"scenario":"Q1",%s}`, "watches": `{"scenario":"Q1","trace":"live","window":64,%s}`} {
		for _, tc := range cases {
			resp, err := http.Post(ts.URL+"/v1/tenants/acme/"+route, "application/json",
				strings.NewReader(fmt.Sprintf(accepted, tc.field)))
			if err != nil {
				t.Fatalf("%s: %s: %v", route, tc.name, err)
			}
			var body bytes.Buffer
			body.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status || !strings.Contains(body.String(), tc.mentions) {
				t.Errorf("%s: %s: status %d body %.200s, want %d mentioning %q",
					route, tc.name, resp.StatusCode, body.String(), tc.status, tc.mentions)
			}
		}
	}
	var listed struct {
		Jobs    []jobStatus   `json:"jobs"`
		Watches []watchStatus `json:"watches"`
	}
	getJSON(t, ts.URL+"/v1/tenants/acme/jobs", &listed)
	getJSON(t, ts.URL+"/v1/tenants/acme/watches", &listed)
	if len(listed.Jobs) != 0 || len(listed.Watches) != 0 {
		t.Errorf("rejected requests left %d job(s) and %d watch(es) behind", len(listed.Jobs), len(listed.Watches))
	}

	// The largest accepted scale and the README's watch example still pass
	// intake (the README's job example needs its trace ingested first:
	// TestIngestAndStoreBackedJob submits that shape).
	resp, body := postJSON(t, ts.URL+"/v1/tenants/acme/watches", json.RawMessage(readmeWatchBody))
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("README watch example: status %d: %s", resp.StatusCode, body)
	}
	srv.stopWatches(context.Background())
	atCap := repairRequest{Switches: maxSwitches, Flows: maxFlows}
	if sc, err := atCap.scale(); err != nil || sc != (scenario.Scale{Switches: maxSwitches, Flows: maxFlows}) {
		t.Errorf("scale at the caps: %v, %v", sc, err)
	}
}

// FuzzDecodeRequest feeds arbitrary bytes to the decoder both handlers
// share. It must never panic, must answer a rejected body with a 400 or a
// 413, and a body it accepts must resolve to a scale inside the intake
// bounds or to an error.
func FuzzDecodeRequest(f *testing.F) {
	f.Add([]byte(readmeJobBody))
	f.Add([]byte(readmeWatchBody))
	f.Add([]byte(`{"scenario":"Q1","switches":100000000}`))
	f.Add([]byte(`{"scenario":"Q1","flows":-1,"batch":64,"explore_workers":0}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, req := range []interface {
			scale() (scenario.Scale, error)
			options() ([]metarepair.Option, error)
		}{new(jobRequest), new(watchRequest)} {
			w := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
			if !decodeRequest(w, r, req) {
				if w.Code != http.StatusBadRequest && w.Code != http.StatusRequestEntityTooLarge {
					t.Fatalf("rejected body answered %d", w.Code)
				}
				continue
			}
			req.options()
			sc, err := req.scale()
			if err == nil && (sc.Switches < 1 || sc.Switches > maxSwitches || sc.Flows < 1 || sc.Flows > maxFlows) {
				t.Fatalf("accepted scale %v is outside the bounds", sc)
			}
		}
	})
}
