package main

import (
	"sync"
	"time"
)

// This file is the host-speed calibration. The sandbox this benchmark is
// sized for slows identical code down by 10-40 % for tens of seconds at a
// time (see README, Noise), far more than the changes the benchmark has to
// resolve. Between units of measured work the benchmark therefore runs a
// fixed calibration loop — an arithmetic pass and a random-access pass over
// 16 MB — and reports the metrics that are sustained simulation compute at the
// speed the host showed on that loop during the same run: time × calibNominal
// / (median loop time).
//
// The loop runs on as many goroutines as the workload keeps busy: one for the
// sim-* workloads, which simulate on one thread, and two for the sweep's job
// pool and streamd's workers. The host's slow spells hit work on both CPUs far
// harder than work on one (over the runs of a noisy hour the one-lane
// arithmetic pass spread 2-4 %, two at once 18-47 %), so a one-lane loop
// misses most of what slows a pool, and a two-lane loop reads up to twice too
// slow for a single thread. README has the measurements, and the variants
// that did worse. The loop is benchmark code, which a change claiming a gain
// may not edit, so both sides of a comparison are scaled by the same
// yardstick.

const (
	calibMaxLanes = 2
	calibALUSteps = 2_000_000
	calibMEMSteps = 200_000
	calibWords    = 4 << 20 // 16 MB of uint32 per lane: well past the last-level cache
	// calibNominal is what one arithmetic pass plus one memory pass take on
	// the 2-CPU container the benchmark was sized on when it is undisturbed,
	// so calibrated times stay close to measured ones.
	calibNominal = 8 * time.Millisecond
)

// calibLane is one goroutine's share of the loop.
type calibLane struct {
	words []uint32
	sink  uint64 // keeps the passes' results live
}

// calibrator collects calibration samples over a run.
type calibrator struct {
	lanes    []calibLane
	alu, mem []float64 // seconds per pass
}

// newCalibrator returns a calibrator whose loop runs on lanes goroutines at
// once (at most calibMaxLanes: the benchmark is sized for a 2-CPU container).
func newCalibrator(lanes int) *calibrator {
	c := &calibrator{lanes: make([]calibLane, min(max(lanes, 1), calibMaxLanes))}
	for i := range c.lanes {
		c.lanes[i].words = make([]uint32, calibWords)
		c.lanes[i].memPass() // fault the pages in
	}
	return c
}

func (l *calibLane) aluPass() {
	x := uint64(88172645463325252)
	for i := 0; i < calibALUSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	l.sink += x
}

func (l *calibLane) memPass() {
	x := uint32(2463534242)
	var s uint64
	for i := 0; i < calibMEMSteps; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		s += uint64(l.words[x&(calibWords-1)])
		l.words[(x>>3)&(calibWords-1)] = x
	}
	l.sink += s
}

// onEveryLane runs pass on all lanes at once and returns how long the
// slowest took.
func (c *calibrator) onEveryLane(pass func(*calibLane)) float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for i := range c.lanes {
		wg.Add(1)
		go func(l *calibLane) {
			defer wg.Done()
			pass(l)
		}(&c.lanes[i])
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// sample times one arithmetic and one memory pass. A nil calibrator samples
// nothing, so code that runs outside a benchmark run needs no special case.
func (c *calibrator) sample() {
	if c == nil {
		return
	}
	c.alu = append(c.alu, c.onEveryLane((*calibLane).aluPass))
	c.mem = append(c.mem, c.onEveryLane((*calibLane).memPass))
}

// factor is how much slower than nominal the host ran the loop: the median
// arithmetic pass plus the median memory pass over calibNominal. It is 1 with
// no samples.
func (c *calibrator) factor() float64 {
	if c == nil || len(c.alu) == 0 {
		return 1
	}
	return (medianOf(c.alu) + medianOf(c.mem)) / calibNominal.Seconds()
}

// calibrated reports whether an end-to-end metric is sustained simulation
// compute on workload, and so reported at calibrated host speed: set-up, the
// time per record and the result rate everywhere, and on sim-* their aliases.
// The other latencies — a memo or resume pass, a cache hit — are a few
// microseconds to a few milliseconds on one thread; they moved 4-13 % over
// the runs in which the calibrated metrics moved 17-46 %, and scaling them
// only added the yardstick's own noise.
func calibrated(workload, metric string) bool {
	switch metric {
	case "setup_s", "host_ns_per_record", "results_per_s":
		return true
	}
	return aliased(workload, metric)
}

// applyCalibration rescales the calibrated end-to-end metrics of vals to
// nominal host speed: times are divided by f and rates multiplied. A metric
// vals lacks stays absent.
func applyCalibration(workload string, vals values, f float64) {
	for _, d := range endToEnd {
		v, ok := vals[d.Name]
		if !ok || !calibrated(workload, d.Name) {
			continue
		}
		if d.Unit == "1/s" {
			vals[d.Name] = v * f
		} else {
			vals[d.Name] = v / f
		}
	}
}
