package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it.
// It returns NaN for an empty input.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// quietPercentile is the percentile the gating time metrics are taken at.
// The sizing container shares its cores: the same op runs 25-30% slower
// for seconds at a time whenever a neighbour is busy, the share of a run
// spent that way varies from run to run, and so a run's median or mean
// moves by 15-25% between identical runs. The 10th percentile sits inside
// the undisturbed mode in every run that has one and moves about half as
// much (README, "Noise"). Medians and tails are still reported, unbounded.
const quietPercentile = 10

// quiet is the op (or round) time the machine delivers when left alone.
func quiet(xs []float64) float64 { return percentile(xs, quietPercentile) }

// mean is the arithmetic mean; NaN for an empty input.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailMinBeyond is how many samples must lie beyond a percentile before
// it is worth reporting (choosing-metrics guide, section 1).
const tailMinBeyond = 10

// tailPercentile picks the highest of p75/p90/p95/p99 that still has at
// least tailMinBeyond samples beyond it and returns it with its value;
// p is 0 when even p75 is too thin.
func tailPercentile(xs []float64) (p, value float64) {
	for _, cand := range []float64{99, 95, 90, 75} {
		rank := int(math.Ceil(cand / 100 * float64(len(xs))))
		if len(xs)-rank >= tailMinBeyond {
			return cand, percentile(xs, cand)
		}
	}
	return 0, math.NaN()
}

// geomean is the geometric mean of positive values; NaN for an empty
// input or any non-positive value.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) (the exclusive method) computes them —
// the rule the driver applies to run-to-run spread. It needs at least
// two samples; ok is false otherwise.
func quartiles(xs []float64) (q [3]float64, ok bool) {
	m := len(xs)
	if m < 2 {
		return q, false
	}
	s := sorted(xs)
	for i := 1; i <= 3; i++ {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4 // taken after clamping, as Python does
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q, true
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure bounds are compared against. It is 0 when
// there are too few samples to form quartiles.
func spread(xs []float64) float64 {
	q, ok := quartiles(xs)
	if !ok || q[1] == 0 {
		return 0
	}
	return math.Abs(q[2]-q[0]) / math.Abs(q[1])
}
