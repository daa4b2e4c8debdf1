package main

import (
	"bufio"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Summary describes a sample of timings the way every latency metric in this
// benchmark is reported: the median, the highest percentile that still has
// at least ten samples beyond it, and the sample count.
type Summary struct {
	N      int
	Median float64
	// TailPct is the percentile Tail was read at: the highest of 90, 99,
	// 99.9 and 99.99 with at least ten samples beyond it, or 50 when the
	// sample supports none of them (Tail then equals Median).
	TailPct float64
	Tail    float64
}

// tailPercentiles are the candidate tail percentiles, ascending.
var tailPercentiles = []float64{90, 99, 99.9, 99.99}

// Summarize computes the Summary of samples (which it does not modify). An
// empty sample yields the zero Summary.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := Summary{N: len(s), Median: median(s), TailPct: 50}
	out.Tail = out.Median
	for _, p := range tailPercentiles {
		if beyond(len(s), p) < 10 {
			break
		}
		out.TailPct, out.Tail = p, percentile(s, p)
	}
	return out
}

// supportedPercentile returns the p-th percentile of samples when at least
// ten samples lie beyond it, and otherwise the highest percentile Summarize
// supports, with the percentile it read.
func supportedPercentile(samples []float64, p float64) (value, pct float64) {
	if beyond(len(samples), p) >= 10 {
		return percentileOf(samples, p), p
	}
	s := Summarize(samples)
	return s.Tail, s.TailPct
}

// beyond returns how many of n sorted samples lie strictly beyond the
// nearest-rank p-th percentile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// rank is the 1-based nearest-rank index of the p-th percentile among n
// samples.
func rank(n int, p float64) int {
	// The epsilon keeps 99.9 % of 10000 at rank 9990: in floating point the
	// product lands a hair above it.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// median returns the median of sorted (mean of the two middle values for an
// even count).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of xs and returns its median.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// percentileOf returns the nearest-rank p-th percentile of xs (0 when empty).
func percentileOf(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, p)
}

// histSeries is one histogram series of a Prometheus text exposition,
// reduced to what the benchmark reads from it. The stock latency buckets
// start at 100µs, coarser than most serving stages, so stage costs are
// reported as exact means (sum/count) and never as bucket-interpolated
// quantiles.
type histSeries struct {
	Sum   float64
	Count float64
}

// Mean returns the series mean, or 0 with no observations.
func (h histSeries) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / h.Count
}

// parseHistogram extracts name's _sum and _count for the series whose label
// set contains label (e.g. `stage="decode"`; empty matches the unlabelled
// series) from a text exposition.
func parseHistogram(exposition, name, label string) histSeries {
	var h histSeries
	sc := bufio.NewScanner(strings.NewReader(exposition))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+"_") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series, val := line[:sp], line[sp+1:]
		if label != "" && !strings.Contains(series, label) {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(series, name+"_sum"):
			h.Sum = v
		case strings.HasPrefix(series, name+"_count"):
			h.Count = v
		}
	}
	return h
}
