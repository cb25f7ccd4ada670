package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// seq returns 1..n.
func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"empty", nil, 50, math.NaN()},
		{"single", []float64{7}, 99, 7},
		{"median of even count takes the lower middle", []float64{4, 1, 3, 2}, 50, 2},
		{"median of odd count", []float64{5, 1, 3}, 50, 3},
		{"p75 of 1..10", seq(10), 75, 8},
		{"p90 of 1..10", seq(10), 90, 9},
		{"p99 of 1..100", seq(100), 99, 99},
		{"p100 is the maximum", seq(10), 100, 10},
		{"input order does not matter", []float64{9, 2, 7, 4}, 75, 7},
	} {
		if got := percentile(tc.xs, tc.p); !near(got, tc.want) {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", tc.name, tc.xs, tc.p, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantP float64
		wantV float64
	}{
		{0, 0, math.NaN()},
		{39, 0, math.NaN()}, // p75 is rank 30: 9 beyond
		{40, 75, 30},        // p75 is rank 30: 10 beyond
		{99, 75, 75},        // p90 is rank 90: 9 beyond
		{100, 90, 90},       // p90 is rank 90: 10 beyond; p95 has 5
		{200, 95, 190},      // p95 is rank 190: 10 beyond; p99 has 2
		{999, 95, 950},      // p99 is rank 990: 9 beyond
		{1000, 99, 990},     // p99 is rank 990: 10 beyond
	} {
		p, v := tailPercentile(seq(tc.n))
		if p != tc.wantP || !near(v, tc.wantV) {
			t.Errorf("tailPercentile(1..%d) = p%v %v, want p%v %v", tc.n, p, v, tc.wantP, tc.wantV)
		}
	}
}

func TestGeomean(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, math.NaN()},
		{[]float64{5}, 5},
		{[]float64{2, 8}, 4},
		{[]float64{1, 10, 100}, 10},
		{[]float64{4, 0}, math.NaN()},
		{[]float64{4, -1}, math.NaN()},
	} {
		if got := geomean(tc.xs); !near(got, tc.want) {
			t.Errorf("geomean(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestMean(t *testing.T) {
	if got := mean([]float64{1, 2, 6}); !near(got, 3) {
		t.Errorf("mean = %v, want 3", got)
	}
	if got := mean(nil); !math.IsNaN(got) {
		t.Errorf("mean of nothing = %v, want NaN", got)
	}
}

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2.5, 1, 7, 3, 11}, [3]float64{1.75, 3, 9}},
	} {
		got, ok := quartiles(tc.xs)
		if !ok {
			t.Errorf("quartiles(%v) not ok", tc.xs)
			continue
		}
		for i := range got {
			if !near(got[i], tc.want[i]) {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
	if _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample must not be ok")
	}
	if got := spread([]float64{1}); got != 0 {
		t.Errorf("spread of one sample = %v, want 0", got)
	}
	if got, want := spread(seq(10)), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "turnaround_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "repairs_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name     string
		d        metricDef
		old, new []float64
		want     string
	}{
		{"same numbers", lower, []float64{100, 101, 102}, []float64{100, 101, 102}, "unchanged"},
		{"worse within the bound", lower, []float64{100, 101, 102}, []float64{108, 109, 110}, "unchanged"},
		{"worse beyond the bound", lower, []float64{100, 101, 102}, []float64{120, 121, 122}, "regressed"},
		{"lower throughput beyond the bound", higher, []float64{10, 10.1, 10.2}, []float64{8, 8.1, 8.2}, "regressed"},
		{"higher throughput is no regression", higher, []float64{10, 10.1, 10.2}, []float64{12, 12.1, 12.2}, "unchanged"},
		{"spread wider than the bound", lower, []float64{80, 100, 130}, []float64{85, 100, 125}, "unresolved"},
		{"wide spread but every new run better", lower, []float64{80, 100, 130}, []float64{40, 50, 70}, "unchanged"},
		{"single runs have no spread", lower, []float64{100}, []float64{150}, "regressed"},
	} {
		if got := verdictFor(tc.d, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestSeedShapesInputsOnly(t *testing.T) {
	for _, w := range workloads {
		a, b := w.seeded(7), w.seeded(7)
		for i := range a {
			if a[i].Name != b[i].Name || a[i].Scale != b[i].Scale {
				t.Fatalf("%s: seed 7 gave %v then %v", w.Name, a[i], b[i])
			}
		}
		seen := map[string]bool{}
		for i, c := range a {
			seen[c.Name] = true
			var base cell
			for _, o := range w.Cells {
				if o.Name == c.Name {
					base = o
				}
			}
			extra := c.Scale.Flows - base.Scale.Flows
			if extra < 0 || extra > base.Scale.Flows*flowJitterPermille/1000 || c.Scale.Switches != base.Scale.Switches {
				t.Errorf("%s cell %d: scale %v strays from %v", w.Name, i, c.Scale, base.Scale)
			}
		}
		if len(seen) != len(w.Cells) {
			t.Errorf("%s: rotation lost a cell: %v", w.Name, a)
		}
	}
}
