package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// This file is what every workload's run is built from: operation counting,
// the report a run hands back, set-up and repetition timing, and a few small
// numeric helpers.

// ops counts attempted and failed operations.
type ops struct {
	attempted, failed int
	notes             []string // first few failure descriptions
}

func (o *ops) add(ok bool, format string, args ...any) {
	o.attempted++
	if ok {
		return
	}
	o.failed++
	if len(o.notes) < 8 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

func (o *ops) merge(p ops) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.notes = append(o.notes, p.notes...)
}

// memDelta reads allocation counters around a measured region.
type memDelta struct{ mallocs, bytes uint64 }

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.Mallocs, ms.TotalAlloc}
}

func (a memDelta) since(b memDelta) memDelta {
	return memDelta{a.mallocs - b.mallocs, a.bytes - b.bytes}
}

// report is what one benchmark run hands back: metric values, operation
// counts and the facts worth printing beside them.
type report struct {
	vals   values
	ops    ops
	digest string
	info   []string
	// borrowed names, for a traced run, the per-layer metrics that were not
	// measured on this workload, and the workload they were measured on.
	borrowed map[string]string
}

// setupMedian runs a workload's set-up n times and returns the last value
// with the median duration, so one slow set-up does not read as a
// regression. Each set-up starts from a collected heap: set-up allocates
// heavily, and what the previous one left behind would otherwise decide
// when the collector runs during this one.
func setupMedian[T any](n int, setup func() (T, error)) (T, float64, error) {
	var out T
	secs := make([]float64, n)
	for i := range secs {
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return out, 0, err
		}
		secs[i] = time.Since(start).Seconds()
		out = v
	}
	return out, medianOf(secs), nil
}

// repeatFor calls rep at least min times, then for as long as the next
// repetition is expected to end within the budget.
func repeatFor(budget time.Duration, min int, rep func(i int) error) (int, error) {
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if i >= min && time.Since(start)+last/2 > budget {
			return i, nil
		}
		t := time.Now()
		if err := rep(i); err != nil {
			return i, err
		}
		last = time.Since(t)
	}
}

// hashAll is the SHA-256 of parts, in order: the digest a workload's
// results are compared by.
func hashAll(parts [][]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
