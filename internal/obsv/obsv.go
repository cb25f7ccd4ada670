// Package obsv is the repo's dependency-free observability substrate:
// counters, gauges, and fixed-bucket latency histograms with atomic hot
// paths, grouped into labeled families on a Registry and exposed in the
// Prometheus text format (see expose.go). Every long-running component —
// the metarepaird daemon, the job engine, the repair session — records
// into a Registry; scrapers read /metrics, one-shot runs dump the same
// text with the CLI's -metrics flag.
//
// # Metric naming conventions
//
// New metrics MUST follow these rules (they are what makes the catalogue
// scrapeable and joinable across subsystems):
//
//   - snake_case, prefixed by the owning subsystem: jobs_*, http_*,
//     session_*, ndlog_*, tracestore_*. A metric name states what is
//     measured, not where it is printed.
//   - unit suffixes: durations are _seconds, sizes are _bytes. Raw
//     monotone event counts end in _total and are counters; everything
//     that can go down is a gauge with no _total suffix.
//   - labels are for bounded dimensions only (route, state, span name,
//     tenant). Never label by job ID, candidate description, or anything
//     else that grows with traffic — each label combination is a live
//     child series for the life of the process.
//   - histograms use BucketsLatency unless the measured range genuinely
//     differs; consistent buckets keep p99s comparable across families.
//
// The ndlog_* layer has two shapes: ndlog_engine_ops_total{op=...} for
// the labeled bulk counters, and the plain ndlog_delta_group_joins_total
// that accounts for delta-grouped backtest evaluation — it is recorded
// from Report.Engine when a job or one-shot run finishes, so a zero there
// under delta mode means the grouped path did not run.
//
// Hot-path cost: Counter.Add and Gauge.Set are one atomic op;
// Histogram.Observe is two atomic adds plus a branchless-ish bucket walk
// over a small fixed array. Vec lookups take an RLock plus a map probe;
// callers on tight loops should hoist With() out of the loop.
package obsv

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type, matching the Prometheus TYPE line.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind as the exposition format spells it.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// BucketsLatency is the default duration histogram layout (seconds):
// 1ms to 60s in roughly 2.5× steps, wide enough for both a sub-second
// HTTP route and a multi-second repair job.
var BucketsLatency = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Registry is a set of metric families. The zero value is not usable;
// create with NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

// family is one named metric family: a fixed label-key schema and the
// child series instantiated under it.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histograms only

	mu       sync.RWMutex
	children map[string]metric
	order    []string // child keys, first-seen order (sorted at exposition)
}

// metric is the per-series interface the exposition walks.
type metric interface {
	labelValues() []string
}

// register creates (or returns) the named family, panicking on a
// name/kind/label-schema collision — metric registration is programmer
// intent, and a collision is a bug worth failing loudly on.
func (r *Registry) register(name, help string, kind Kind, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obsv: metric %q re-registered with a different kind or label schema", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...), buckets: buckets,
		children: make(map[string]metric),
	}
	r.fams[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// child returns the series for the label values, creating it on first
// use. make builds the series when absent.
func (f *family) child(values []string, make func([]string) metric) metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obsv: metric %q wants %d label value(s), got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.RLock()
	m, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok = f.children[key]; ok {
		return m
	}
	m = make(append([]string(nil), values...))
	f.children[key] = m
	f.order = append(f.order, key)
	return m
}

// sortedChildren snapshots the family's series sorted by label values,
// so exposition output is deterministic.
func (f *family) sortedChildren() []metric {
	f.mu.RLock()
	defer f.mu.RUnlock()
	keys := append([]string(nil), f.order...)
	sort.Strings(keys)
	out := make([]metric, 0, len(keys))
	for _, k := range keys {
		out = append(out, f.children[k])
	}
	return out
}

// Counter is a monotonically increasing count. The zero of the series is
// its registration; counters never go down.
type Counter struct {
	vals []string
	n    atomic.Int64
}

func (c *Counter) labelValues() []string { return c.vals }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta; negative deltas panic (a counter is monotone — use a
// Gauge for anything that can shrink).
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("obsv: counter Add with negative delta")
	}
	c.n.Add(delta)
}

// Value reads the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is an instantaneous value that can move both ways.
type Gauge struct {
	vals []string
	bits atomic.Uint64 // math.Float64bits
}

func (g *Gauge) labelValues() []string { return g.vals }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the value by delta (CAS loop; contended adds retry).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Buckets are cumulative upper
// bounds (the +Inf bucket is implicit); Observe is lock-free.
type Histogram struct {
	vals    []string
	buckets []float64      // upper bounds, ascending
	counts  []atomic.Int64 // len(buckets)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

func (h *Histogram) labelValues() []string { return h.vals }

func newHistogram(vals []string, buckets []float64) *Histogram {
	return &Histogram{
		vals: vals, buckets: buckets,
		counts: make([]atomic.Int64, len(buckets)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.buckets) && v > h.buckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count is the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum is the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-th quantile (0 < q <= 1) from the bucket
// counts, interpolating linearly inside the landing bucket — the same
// estimate a PromQL histogram_quantile gives. With no observations it
// returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen int64
	lower := 0.0
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			if i < len(h.buckets) {
				lower = h.buckets[i]
			}
			continue
		}
		if float64(seen+n) >= rank {
			if i >= len(h.buckets) { // +Inf bucket: no upper bound to interpolate to
				return lower
			}
			upper := h.buckets[i]
			frac := (rank - float64(seen)) / float64(n)
			return lower + (upper-lower)*frac
		}
		seen += n
		if i < len(h.buckets) {
			lower = h.buckets[i]
		}
	}
	return lower
}

// Counter registers (or fetches) an unlabeled counter family and returns
// its single series.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, KindCounter, nil, nil)
	return f.child(nil, func(vals []string) metric { return &Counter{vals: vals} }).(*Counter)
}

// Gauge registers an unlabeled gauge family and returns its series.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, KindGauge, nil, nil)
	return f.child(nil, func(vals []string) metric { return &Gauge{vals: vals} }).(*Gauge)
}

// Histogram registers an unlabeled histogram family and returns its
// series. buckets nil means BucketsLatency.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = BucketsLatency
	}
	f := r.register(name, help, KindHistogram, nil, buckets)
	return f.child(nil, func(vals []string) metric { return newHistogram(vals, f.buckets) }).(*Histogram)
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family. The family appears in
// the exposition (HELP/TYPE) even before any child series exists, so
// scrapers can rely on the catalogue being complete.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, KindCounter, labels, nil)}
}

// With returns the series for the label values (created on first use).
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func(vals []string) metric { return &Counter{vals: vals} }).(*Counter)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, KindGauge, labels, nil)}
}

// With returns the series for the label values (created on first use).
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func(vals []string) metric { return &Gauge{vals: vals} }).(*Gauge)
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family; buckets nil means
// BucketsLatency.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = BucketsLatency
	}
	return &HistogramVec{f: r.register(name, help, KindHistogram, labels, buckets)}
}

// With returns the series for the label values (created on first use).
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func(vals []string) metric { return newHistogram(vals, v.f.buckets) }).(*Histogram)
}

// families snapshots the registry's families sorted by name.
func (r *Registry) families() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
