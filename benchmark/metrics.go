package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric of the benchmark's contract. The two tables
// below are the single source of truth: BENCHMARK.json repeats them (a
// test checks the two agree) and -compare reads the bounds from here.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline median it may worsen
}

// endToEnd are the metrics a user of the system sees, reported by the
// untraced run (--trace 0) of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"turnaround_ms_p10", "ms", "lower", 0.25},
	{"repairs_per_s", "1/s", "higher", 0.25},
	{"alloc_mb_per_repair", "MB", "lower", 0.05},
	{"cpu_s_per_repair", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics, reported by the traced run
// (--trace 1) of every workload. A metric reads 0 on a workload whose ops
// never pass through that layer (no daemon in the in-process workloads,
// no trace store on table1); benchmark/README.md has the full map.
var perLayer = []metricDef{
	// harness: the rows behind the end-to-end numbers
	{Name: "round_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "turnaround_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "turnaround_ms_p50.Q1", Unit: "ms", Better: "lower"},
	{Name: "turnaround_ms_p50.Q2", Unit: "ms", Better: "lower"},
	{Name: "turnaround_ms_p50.Q3", Unit: "ms", Better: "lower"},
	{Name: "turnaround_ms_p50.Q4", Unit: "ms", Better: "lower"},
	{Name: "turnaround_ms_p50.Q5", Unit: "ms", Better: "lower"},
	{Name: "turnaround_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "streaming_gain_ms", Unit: "ms", Better: "higher"},
	{Name: "stage_coverage", Unit: "%", Better: "higher"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "allocs_per_repair", Unit: "count", Better: "lower"},
	{Name: "gc_cycles_per_repair", Unit: "count", Better: "lower"},
	// scenario
	{Name: "scenario.instantiate_ms", Unit: "ms", Better: "lower"},
	{Name: "scenario.diagnose_ms", Unit: "ms", Better: "lower"},
	// ndlog
	{Name: "ndlog.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "ndlog.join_probe_ms", Unit: "ms", Better: "lower"},
	{Name: "ndlog.packetin_probe_ms", Unit: "ms", Better: "lower"},
	{Name: "ndlog.diagnose_firings", Unit: "count", Better: "lower"},
	{Name: "ndlog.backtest_firings", Unit: "count", Better: "lower"},
	{Name: "ndlog.backtest_group_joins", Unit: "count", Better: "lower"},
	{Name: "ndlog.delta_hit_rate", Unit: "%", Better: "higher"},
	{Name: "ndlog.delta_inserts", Unit: "count", Better: "lower"},
	{Name: "ndlog.index_rows_per_lookup", Unit: "count", Better: "lower"},
	// provenance
	{Name: "provenance.packetin_probe_ms", Unit: "ms", Better: "lower"},
	{Name: "provenance.record_ms", Unit: "ms", Better: "lower"},
	{Name: "provenance.history_ms", Unit: "ms", Better: "lower"},
	// trace + sdn + ndlog forward replay
	{Name: "backtest.baseline_ms", Unit: "ms", Better: "lower"},
	{Name: "replay.entries_per_s", Unit: "1/s", Better: "higher"},
	// tracestore
	{Name: "tracestore.append_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "tracestore.scan_ms", Unit: "ms", Better: "lower"},
	{Name: "tracestore.scan_entries_per_s", Unit: "1/s", Better: "higher"},
	{Name: "tracestore.bytes_per_entry", Unit: "B", Better: "lower"},
	{Name: "tracestore.ingest_mb_per_s", Unit: "MB/s", Better: "higher"},
	// metaprov + solver
	{Name: "metaprov.explore_ms", Unit: "ms", Better: "lower"},
	{Name: "metaprov.steps", Unit: "count", Better: "lower"},
	{Name: "metaprov.candidates", Unit: "count", Better: "higher"},
	{Name: "metaprov.steps_per_candidate", Unit: "count", Better: "lower"},
	{Name: "solver.solve_ms", Unit: "ms", Better: "lower"},
	// backtest + stats
	{Name: "backtest.build_ms", Unit: "ms", Better: "lower"},
	{Name: "backtest.evaluate_ms", Unit: "ms", Better: "lower"},
	{Name: "backtest.batches", Unit: "count", Better: "lower"},
	{Name: "backtest.ms_per_candidate", Unit: "ms", Better: "lower"},
	{Name: "backtest.accepted_share", Unit: "%", Better: "higher"},
	{Name: "stats.ks_probe_us", Unit: "us", Better: "lower"},
	// metarepaird + jobs (service only)
	{Name: "metarepaird.boot_ms", Unit: "ms", Better: "lower"},
	{Name: "metarepaird.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "metarepaird.ingest_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "metarepaird.report_lag_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "metarepaird.sse_events_per_job", Unit: "count", Better: "lower"},
	{Name: "metarepaird.early_stop_share", Unit: "%", Better: "higher"},
	{Name: "jobs.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobs.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobs.rejected_429", Unit: "count", Better: "lower"},
	{Name: "loadgen.cpu_share", Unit: "%", Better: "lower"},
}

// metric is one measured value as the contract prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run of one workload measured. Metrics holds
// the contract metrics of the run's mode plus extras (tail percentile,
// sample counts) that only the text output and the ledger carry.
type result struct {
	Workload  string            `json:"workload"`
	Trace     int               `json:"trace"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"measured_s"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Notes are reconciliation checks that did not hold and the first
	// few op failures; a note makes the run incorrect.
	Notes []string `json:"notes,omitempty"`
}

func (r *result) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// maxNotes bounds how many op failures a result spells out.
const maxNotes = 5

// opFailed counts a failed op and keeps the first few reasons.
func (r *result) opFailed(what string, err error) {
	r.Failed++
	if r.Failed <= maxNotes {
		r.note("%s failed: %v", what, err)
	}
}

// defsFor returns the contract table of a mode.
func defsFor(trace int) []metricDef {
	if trace == 1 {
		return perLayer
	}
	return endToEnd
}

// fill sets every contract metric of the run's mode that the workload
// did not measure to 0 in its declared unit — the layer is not on this
// workload's path — and reports a measured value that is not finite.
func (r *result) fill() {
	for _, d := range defsFor(r.Trace) {
		m, ok := r.Metrics[d.Name]
		if !ok {
			r.set(d.Name, d.Unit, 0)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.note("metric %s is not finite", d.Name)
			r.set(d.Name, d.Unit, 0)
		}
	}
}

// contractLine renders the run's last stdout line: exactly the keys the
// driver reads, and exactly the metrics of the run's mode.
func (r *result) contractLine() string {
	metrics := map[string]metric{}
	for _, d := range defsFor(r.Trace) {
		metrics[d.Name] = r.Metrics[d.Name]
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // only non-finite floats fail to marshal, and fill removed them
	}
	return string(line)
}

// text renders every metric by name with its unit, one per line.
func (r *result) text() string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	out := fmt.Sprintf("workload %s  trace %d  seed %d  measured %.1fs  ops_attempted %d  ops_failed %d\n",
		r.Workload, r.Trace, r.Seed, r.Seconds, r.Attempted, r.Failed)
	for _, n := range names {
		out += fmt.Sprintf("  %-34s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, n := range r.Notes {
		out += "  NOTE: " + n + "\n"
	}
	return out
}
