package main

import (
	"math"
	"sort"
	"time"
)

// clock is the benchmark's one time source: nanoseconds since the process
// started, monotonic.
var processStart = time.Now()

func now() int64 { return int64(time.Since(processStart)) }

func sleepUntil(t int64) {
	if d := t - now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

func usec(ns float64) float64 { return ns / 1e3 }

// median returns the median of xs (NaN when empty) without reordering it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spread is the noise a sliced metric states about itself:
// (max - min) / median over its slice values.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(m)
}

func floats(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v)
	}
	return out
}

// sortedCopy returns ns sorted ascending, leaving ns in recording order.
func sortedCopy(ns []int64) []int64 {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile reads the q-quantile of an ascending sample (NaN when empty).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return float64(sorted[int(q*float64(len(sorted)-1))])
}

// tailLabel names the highest of p90/p99/p99.9 that still has at least ten
// samples beyond it — the furthest tail this sample count can support.
func tailLabel(sorted []int64) (string, float64) {
	label, q := "p50", 0.5
	for _, c := range []struct {
		label string
		q     float64
	}{{"p90", 0.90}, {"p99", 0.99}, {"p99.9", 0.999}} {
		if float64(len(sorted))*(1-c.q) >= 10 {
			label, q = c.label, c.q
		}
	}
	return label, quantile(sorted, q)
}

// sliceMedians splits samples (recorded with their slice index) into
// per-slice medians.
func sliceMedians(vals []int64, slice []uint8, n int) []float64 {
	buckets := make([][]float64, n)
	for i, v := range vals {
		buckets[slice[i]] = append(buckets[slice[i]], float64(v))
	}
	out := make([]float64, 0, n)
	for _, b := range buckets {
		if len(b) > 0 {
			out = append(out, median(b))
		}
	}
	return out
}
