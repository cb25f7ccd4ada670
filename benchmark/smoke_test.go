package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// contractDoc mirrors BENCHMARK.json.
type contractDoc struct {
	Command    []string              `json:"command"`
	Paths      []string              `json:"paths"`
	RunSeconds int                   `json:"run_seconds"`
	Workloads  []contractWork        `json:"workloads"`
	EndToEnd   []contractMetric      `json:"end_to_end"`
	PerLayer   []contractLayerMetric `json:"per_layer"`
}

type contractWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type contractLayerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// contractFromTables is the BENCHMARK.json the Go tables imply.
func contractFromTables() contractDoc {
	doc := contractDoc{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, contractWork{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, contractMetric{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, contractLayerMetric{d.Name, d.Unit, d.Better})
	}
	return doc
}

// TestContractMatchesTables keeps BENCHMARK.json and the metric and
// workload tables in this package saying the same thing. On a mismatch the
// failure prints the document the tables imply.
func TestContractMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got contractDoc
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	want := contractFromTables()
	if !reflect.DeepEqual(got, want) {
		implied, _ := json.MarshalIndent(want, "", "  ")
		t.Fatalf("BENCHMARK.json differs from the tables in metrics.go/workloads.go; the tables imply:\n%s", implied)
	}
	for _, w := range want.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
}

// buildDaemon compiles cmd/metarepaird for the service workload.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "metarepaird")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/metarepaird").CombinedOutput()
	if err != nil {
		t.Fatalf("building metarepaird: %v\n%s", err, out)
	}
	return bin
}

// smokeRun is one short run of a workload: 2 rounds in-process, 4 jobs on
// the service.
func smokeRun(t *testing.T, w workload, trace int, daemon string) *result {
	t.Helper()
	cfg := runConfig{Seed: goldenSeed, Rounds: 2, Trace: trace, Scratch: t.TempDir(), Daemon: daemon}
	var res *result
	var err error
	if w.Service {
		cfg.Rounds = 4
		res, err = runService(context.Background(), w, cfg)
	} else {
		res, err = runInProcess(context.Background(), w, cfg)
	}
	if err != nil {
		t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
	}
	return res
}

// TestSmoke runs the whole benchmark small and asserts that every metric
// BENCHMARK.json names is measured once per workload and mode, finite,
// that the contract line carries exactly those, and that every op passed
// its output check against the golden files.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			daemon := ""
			if w.Service {
				if testing.Short() {
					t.Skip("the service workload builds and boots metarepaird")
				}
				daemon = buildDaemon(t)
			}
			for trace := 0; trace <= 1; trace++ {
				res := smokeRun(t, w, trace, daemon)
				if res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("trace=%d: %d of %d ops failed: %v", trace, res.Failed, res.Attempted, res.Notes)
				}
				measured := len(res.Metrics)
				res.fill()
				if trace == 0 && len(res.Metrics) != measured {
					t.Errorf("trace=0: an end-to-end metric was not measured: %v", res.Metrics)
				}
				for _, d := range defsFor(trace) {
					m, ok := res.Metrics[d.Name]
					if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
						t.Errorf("trace=%d: metric %s = %+v (present %v), want a finite value in %s", trace, d.Name, m, ok, d.Unit)
					}
					if trace == 0 && m.Value <= 0 {
						t.Errorf("trace=0: end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
					}
				}
				var line struct {
					Correct   *bool             `json:"correct"`
					Attempted *int              `json:"attempted"`
					Failed    *int              `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(res.contractLine()))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&line); err != nil {
					t.Fatalf("trace=%d: contract line: %v", trace, err)
				}
				if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(defsFor(trace)) {
					t.Errorf("trace=%d: contract line %s lacks a key or a metric", trace, res.contractLine())
				}
			}
		})
	}
}

// exactCounts are the per-layer metrics that count work instead of timing
// it; they must repeat exactly for a seed.
var exactCounts = []string{
	"ndlog.diagnose_firings", "ndlog.backtest_firings", "ndlog.backtest_group_joins",
	"ndlog.delta_hit_rate", "ndlog.delta_inserts",
	"metaprov.steps", "metaprov.candidates", "metaprov.steps_per_candidate",
	"backtest.batches", "backtest.accepted_share",
}

// TestCountsRepeat runs two traced runs of one seed and compares the
// counts. explore-wide is the workload most likely to expose scheduling
// in them: 64 candidates over two batches under the concurrent search.
func TestCountsRepeat(t *testing.T) {
	w, err := workloadByName("explore-wide")
	if err != nil {
		t.Fatal(err)
	}
	a, b := smokeRun(t, w, 1, ""), smokeRun(t, w, 1, "")
	for _, r := range []*result{a, b} {
		if len(r.Notes) > 0 {
			t.Errorf("notes: %v", r.Notes)
		}
	}
	for _, name := range exactCounts {
		if a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s: %v then %v", name, a.Metrics[name], b.Metrics[name])
		}
		if _, ok := a.Metrics[name]; !ok {
			t.Errorf("%s was not measured", name)
		}
	}
}

// TestLedgerRoundTrip appends runs to a ledger and compares it with itself.
func TestLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	for _, v := range []float64{100, 101} {
		res := &result{Workload: "table1", Seed: 1, Correct: true, Attempted: 1}
		for _, d := range endToEnd {
			res.set(d.Name, d.Unit, v)
		}
		if err := appendLedger(path, res); err != nil {
			t.Fatal(err)
		}
	}
	l, err := readLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Runs) != 2 || l.Env["nproc"] == "" {
		t.Fatalf("ledger = %+v", l)
	}
	var out strings.Builder
	regressed, err := compareLedgers(&out, path, path)
	if err != nil || regressed {
		t.Fatalf("comparing a ledger with itself: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if rows := strings.Count(out.String(), "unchanged"); rows != len(endToEnd) {
		t.Errorf("want %d unchanged rows, got:\n%s", len(endToEnd), out.String())
	}
}
