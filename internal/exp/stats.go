package exp

// This file holds the derived statistics the tables report.

import (
	"math"

	"streamline/internal/sim"
)

// Speedup returns pf's IPC over base's (single-core).
func Speedup(base, pf sim.Result) float64 {
	if base.IPC() == 0 {
		return 0
	}
	return pf.IPC() / base.IPC()
}

// ThroughputSpeedup returns the ratio of summed IPCs (multi-core).
func ThroughputSpeedup(base, pf sim.Result) float64 {
	var b, p float64
	for i := range base.Cores {
		b += base.Cores[i].IPC
		p += pf.Cores[i].IPC
	}
	if b == 0 {
		return 0
	}
	return p / b
}

// Coverage returns the fraction of the baseline's L2 demand misses that the
// prefetching configuration removed.
func Coverage(base, pf sim.Result) float64 {
	bm := base.Cores[0].L2.DemandMisses
	pm := pf.Cores[0].L2.DemandMisses
	if bm == 0 || pm >= bm {
		return 0
	}
	return float64(bm-pm) / float64(bm)
}

// Accuracy returns useful prefetches over prefetch fills at the L2.
func Accuracy(res sim.Result) float64 { return res.Cores[0].PrefetchAccuracy() }

// Geomean returns the geometric mean of xs (zero entries are floored).
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			x = 1e-6
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
