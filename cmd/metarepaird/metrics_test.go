package main

import (
	"bytes"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/obsv"
	"repro/internal/tracestore"
	"repro/scenario"
)

// scrapeMetrics GETs /metrics and parses the exposition.
func scrapeMetrics(t *testing.T, baseURL string) *obsv.Scrape {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	sc, err := obsv.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("parsing /metrics exposition: %v", err)
	}
	return sc
}

// bucketCeil returns the smallest latency-bucket upper bound at or above
// v — the tightest claim a histogram can make about an observation of v.
func bucketCeil(v float64) float64 {
	for _, le := range obsv.BucketsLatency {
		if le >= v {
			return le
		}
	}
	return math.Inf(1)
}

// TestMetricsReconcile is the observability acceptance gate: it drives
// real jobs through the HTTP API, measuring each one's duration from the
// client side, then scrapes /metrics and checks that the server's
// telemetry tells the same story — every family present and typed, job
// counts exact, and the run-duration histogram's p99 within the bound
// the client observed.
func TestMetricsReconcile(t *testing.T) {
	const n = 3
	_, ts := newTestServer(t, jobs.Config{Workers: 2})

	var clientDurations []time.Duration
	for i := 0; i < n; i++ {
		begin := time.Now()
		st := submitJob(t, ts, "acme", jobRequest{
			repairRequest: repairRequest{Scenario: "Q1", Switches: testScale.Switches, Flows: testScale.Flows},
		})
		final := waitJob(t, ts, st.ID)
		clientDurations = append(clientDurations, time.Since(begin))
		if final.State != "succeeded" {
			t.Fatalf("job %d ended %s (%s)", i, final.State, final.Error)
		}
	}

	sc := scrapeMetrics(t, ts.URL)

	// Every layer's families must be present and correctly typed, even
	// the ones with no samples yet (tracestore gauges before any ingest).
	wantTypes := map[string]string{
		"jobs_queue_depth":              "gauge",
		"jobs_tenant_queued":            "gauge",
		"jobs_tenant_running":           "gauge",
		"jobs_queue_wait_seconds":       "histogram",
		"jobs_run_duration_seconds":     "histogram",
		"jobs_total":                    "counter",
		"jobs_quota_rejections_total":   "counter",
		"http_requests_total":           "counter",
		"http_request_duration_seconds": "histogram",
		"session_span_duration_seconds": "histogram",
		"session_events_total":          "counter",
		"session_suggestions_total":     "counter",
		"ndlog_engine_ops_total":        "counter",
		"ndlog_delta_group_joins_total": "counter",
		"metaprov_search_total":         "counter",
		"tracestore_entries":            "gauge",
		"tracestore_bytes":              "gauge",
		"tracestore_segments":           "gauge",
		"tracestore_rotations":          "gauge",
	}
	for name, typ := range wantTypes {
		if got := sc.Types[name]; got != typ {
			t.Errorf("family %s: TYPE %q, want %q", name, got, typ)
		}
	}

	// Job accounting: exactly n runs, all succeeded, none left queued.
	succeeded := map[string]string{"state": "succeeded"}
	if got, ok := sc.Value("jobs_run_duration_seconds_count", succeeded); !ok || got != n {
		t.Errorf("jobs_run_duration_seconds_count{state=succeeded} = %v (present %v), want %d", got, ok, n)
	}
	if got, _ := sc.Value("jobs_total", succeeded); got != n {
		t.Errorf("jobs_total{state=succeeded} = %v, want %d", got, n)
	}
	if got, _ := sc.Value("jobs_queue_depth", nil); got != 0 {
		t.Errorf("jobs_queue_depth = %v after all jobs finished, want 0", got)
	}
	if got, _ := sc.Value("jobs_tenant_running", map[string]string{"tenant": "acme"}); got != 0 {
		t.Errorf("jobs_tenant_running{tenant=acme} = %v after all jobs finished, want 0", got)
	}

	// Duration reconciliation. The client clock starts before submit and
	// stops after the final poll, so it strictly contains the server-side
	// run: the histogram's sum must not exceed the client total, and its
	// p99 must sit at or below the bucket ceiling of the slowest
	// client-observed job (interpolation never escapes the bucket that
	// holds the true maximum).
	var clientTotal, clientMax float64
	for _, d := range clientDurations {
		s := d.Seconds()
		clientTotal += s
		if s > clientMax {
			clientMax = s
		}
	}
	if sum, ok := sc.Value("jobs_run_duration_seconds_sum", succeeded); !ok || sum <= 0 || sum > clientTotal {
		t.Errorf("jobs_run_duration_seconds_sum = %v, want in (0, %v]", sum, clientTotal)
	}
	p99, ok := sc.HistogramQuantile("jobs_run_duration_seconds", succeeded, 0.99)
	if !ok {
		t.Fatal("jobs_run_duration_seconds has no buckets")
	}
	if bound := bucketCeil(clientMax); p99 > bound {
		t.Errorf("server p99 %v exceeds client-derived bound %v (client max %v)", p99, bound, clientMax)
	}

	// HTTP layer: n submissions on the jobs route, all 201, and the
	// route's latency histogram saw the same n requests.
	submitRoute := map[string]string{"route": "POST /v1/tenants/{tenant}/jobs", "code": "201"}
	if got, _ := sc.Value("http_requests_total", submitRoute); got != n {
		t.Errorf("http_requests_total{submit,201} = %v, want %d", got, n)
	}
	if got, _ := sc.Value("http_request_duration_seconds_count",
		map[string]string{"route": "POST /v1/tenants/{tenant}/jobs"}); got != n {
		t.Errorf("http_request_duration_seconds_count{submit} = %v, want %d", got, n)
	}

	// Session spans: each job contributes exactly one run/explore/
	// backtest/verdict span, and at least one batch.
	for _, span := range []string{"run", "explore", "backtest", "verdict"} {
		got, _ := sc.Value("session_span_duration_seconds_count", map[string]string{"span": span})
		if got != n {
			t.Errorf("session_span_duration_seconds_count{span=%s} = %v, want %d", span, got, n)
		}
	}
	if got, _ := sc.Value("session_span_duration_seconds_count", map[string]string{"span": "batch"}); got < n {
		t.Errorf("session_span_duration_seconds_count{span=batch} = %v, want >= %d", got, n)
	}

	// Engine counters: a completed repair cannot have done zero NDlog
	// work, and suggestion verdicts flow through the session sink.
	if got, _ := sc.Value("ndlog_engine_ops_total", map[string]string{"op": "firings"}); got <= 0 {
		t.Errorf("ndlog_engine_ops_total{op=firings} = %v, want > 0", got)
	}
	// Jobs default to delta evaluation, so the shared backtest runs must
	// have performed grouped joins.
	if got, _ := sc.Value("ndlog_delta_group_joins_total", nil); got <= 0 {
		t.Errorf("ndlog_delta_group_joins_total = %v, want > 0", got)
	}
	// Every job ran a search: it committed expansions and extracted
	// repairs, and its duplicates and capped ones are among the extracted.
	search := func(outcome string) float64 {
		got, _ := sc.Value("metaprov_search_total", map[string]string{"outcome": outcome})
		return got
	}
	if search("steps") <= 0 || search("extracted") <= 0 {
		t.Errorf("metaprov_search_total: %v steps, %v extracted, want both > 0", search("steps"), search("extracted"))
	}
	if d, c, e := search("duplicate"), search("capped"), search("extracted"); d+c > e {
		t.Errorf("metaprov_search_total: %v duplicate + %v capped > %v extracted", d, c, e)
	}
	if got := sc.Sum("session_suggestions_total", nil); got <= 0 {
		t.Errorf("session_suggestions_total sums to %v, want > 0", got)
	}

	// The scrape itself bumps no counters before it is served, but a
	// second scrape must observe the first on the (uninstrumented-free)
	// route table: /metrics is intentionally not self-instrumented, so
	// http_requests_total must carry no metrics route.
	if got := sc.Sum("http_requests_total", map[string]string{"route": "GET /metrics"}); got != 0 {
		t.Errorf("/metrics is self-instrumented (%v requests recorded); want uninstrumented", got)
	}
}

// TestMetricsStoreFamilies checks the trace-store gauges appear after an
// ingest with real values matching the ingest response.
func TestMetricsStoreFamilies(t *testing.T) {
	_, ts := newTestServer(t, jobs.Config{Workers: 1})
	spec := scenario.Q1Spec().MustInstantiate(testScale)

	var stream []byte
	var err error
	for _, e := range spec.Workload {
		if stream, err = tracestore.Binary.AppendRecord(stream, e); err != nil {
			t.Fatalf("encoding workload: %v", err)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/tenants/acme/traces/t0?format=binary",
		"application/octet-stream", bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}

	sc := scrapeMetrics(t, ts.URL)
	lbl := map[string]string{"tenant": "acme", "trace": "t0"}
	if got, ok := sc.Value("tracestore_entries", lbl); !ok || got != float64(len(spec.Workload)) {
		t.Errorf("tracestore_entries{acme,t0} = %v (present %v), want %d", got, ok, len(spec.Workload))
	}
	if got, _ := sc.Value("tracestore_bytes", lbl); got <= 0 {
		t.Errorf("tracestore_bytes{acme,t0} = %v, want > 0", got)
	}
	if got, _ := sc.Value("tracestore_segments", lbl); got < 1 {
		t.Errorf("tracestore_segments{acme,t0} = %v, want >= 1", got)
	}
	if got, ok := sc.Value("tracestore_rotations", lbl); !ok || got < 0 {
		t.Errorf("tracestore_rotations{acme,t0} = %v (present %v), want >= 0", got, ok)
	}
}

// TestCLIMetricsCatalogueMatchesDaemon: the one-shot CLI's -metrics dump
// and the daemon's /metrics share one definition of the session_*, ndlog_*
// and metaprov_* families (metarepair.NewMetricsSink / NewEngineMetrics /
// NewSearchMetrics), so both must expose exactly the same family names
// with the same types.
func TestCLIMetricsCatalogueMatchesDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the metarepair CLI")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH to build the CLI with")
	}
	dir := t.TempDir()
	cli := filepath.Join(dir, "metarepair-cli")
	if out, err := exec.Command(goTool, "build", "-o", cli, "repro/cmd/metarepair").CombinedOutput(); err != nil {
		t.Fatalf("building the CLI: %v\n%s", err, out)
	}
	dump := filepath.Join(dir, "metrics.prom")
	if out, err := exec.Command(cli, "run", "-scenario", "Q1", "-flows", "300", "-metrics", dump).CombinedOutput(); err != nil {
		t.Fatalf("metarepair run -metrics: %v\n%s", err, out)
	}
	f, err := os.Open(dump)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cliScrape, err := obsv.ParseText(f)
	if err != nil {
		t.Fatalf("parsing the CLI dump: %v", err)
	}

	_, ts := newTestServer(t, jobs.Config{Workers: 1})
	daemonScrape := scrapeMetrics(t, ts.URL)

	shared := func(sc *obsv.Scrape) map[string]string {
		out := make(map[string]string)
		for name, typ := range sc.Types {
			if strings.HasPrefix(name, "ndlog_") || strings.HasPrefix(name, "session_") {
				out[name] = typ
			}
		}
		return out
	}
	fromCLI, fromDaemon := shared(cliScrape), shared(daemonScrape)
	if len(fromCLI) == 0 {
		t.Fatal("the CLI dump carries no ndlog_*/session_* families")
	}
	for name, typ := range fromCLI {
		if got, ok := fromDaemon[name]; !ok || got != typ {
			t.Errorf("family %s: CLI exposes it as %q, daemon as %q (present %v)", name, typ, got, ok)
		}
	}
	for name := range fromDaemon {
		if _, ok := fromCLI[name]; !ok {
			t.Errorf("family %s is on the daemon's /metrics but not in the CLI dump", name)
		}
	}
}

// TestREADMECatalogueMatchesRegistry: the family names and types in the
// README's "Family | Type | Labels" table are exactly the set the daemon
// registers. Each row names its families in full, one per backtick.
func TestREADMECatalogueMatchesRegistry(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "| Family | Type | Labels | Meaning |\n|---|---|---|---|\n")
	if !ok {
		t.Fatal("README has no metric catalogue table")
	}
	documented := make(map[string]string)
	for _, row := range strings.Split(table, "\n") {
		cells := strings.Split(row, "|")
		if len(cells) < 4 {
			break // the table ends at the first line that is not a row
		}
		names := strings.Split(cells[1], "`")
		for i := 1; i < len(names); i += 2 {
			documented[names[i]] = strings.TrimSpace(cells[2])
		}
	}

	_, ts := newTestServer(t, jobs.Config{Workers: 1})
	registered := scrapeMetrics(t, ts.URL).Types
	for name, typ := range registered {
		if got, ok := documented[name]; !ok || got != typ {
			t.Errorf("family %s: registered as %q, README says %q (listed %v)", name, typ, got, ok)
		}
	}
	for name := range documented {
		if _, ok := registered[name]; !ok {
			t.Errorf("family %s is in the README catalogue but not registered", name)
		}
	}
}
