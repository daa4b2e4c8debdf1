package sim

import (
	"io"
	"runtime"
	"testing"

	"streamline/internal/telemetry"
	"streamline/internal/workloads"
)

// BenchmarkKernel measures the per-trace-record cost of the simulation
// kernel on each representative scenario. Custom metrics normalize per
// record: ns/record and records/sec come from the wall clock, allocs/record
// from the allocator's Mallocs counter.
func BenchmarkKernel(b *testing.B) {
	for _, k := range kernelScenarios() {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			var records uint64
			for i := 0; i < b.N; i++ {
				_, recs, err := k.run()
				if err != nil {
					b.Fatal(err)
				}
				records += recs
			}
			runtime.ReadMemStats(&ms1)
			if records == 0 {
				b.Fatal("kernel executed no records")
			}
			el := b.Elapsed()
			b.ReportMetric(float64(el.Nanoseconds())/float64(records), "ns/record")
			b.ReportMetric(float64(records)/el.Seconds(), "records/sec")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(records), "allocs/record")
		})
	}
}

// TestKernelAllocsPerRecordCeiling pins the allocation rate of each kernel
// scenario, in mallocs and in bytes. The hot path is allocation-free after
// warmup and every set-indexed structure is a handful of flat arrays, so
// what remains is construction cost amortized over a short run; the
// ceilings hold about 2x headroom over current values (allocs: 0.0009,
// 0.0022, 0.0020, 0.0032; bytes: 11, 26, 24, 32) while failing loudly on a
// per-record allocation regression. Earlier rates, for scale: 0.8-2.1
// allocs/record before the hot path was made allocation-free, then 0.02-0.18
// while each set, and each metadata slot's targets, was its own allocation.
// The byte ceiling catches what the count cannot: few but huge allocations,
// such as the whole-lap trace buffers that once put these scenarios at 78,
// 98, 54 and 269 B/record without moving the count.
func TestKernelAllocsPerRecordCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("full kernel runs")
	}
	ceilings := map[string]struct{ allocs, bytes float64 }{
		"1core-base-sphinx06":       {0.002, 22},
		"1core-streamline-sphinx06": {0.005, 52},
		"1core-triangel-mcf06":      {0.004, 48},
		"4core-streamline-mix":      {0.007, 65},
	}
	for _, k := range kernelScenarios() {
		ceil, ok := ceilings[k.name]
		if !ok {
			t.Errorf("%s: no allocation ceilings defined; add them", k.name)
			continue
		}
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		_, records, err := k.run()
		runtime.ReadMemStats(&ms1)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if records == 0 {
			t.Fatalf("%s: no records executed", k.name)
		}
		if got := float64(ms1.Mallocs-ms0.Mallocs) / float64(records); got > ceil.allocs {
			t.Errorf("%s: %.4f allocs/record exceeds ceiling %.3f", k.name, got, ceil.allocs)
		}
		if got := float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(records); got > ceil.bytes {
			t.Errorf("%s: %.1f alloc bytes/record exceeds ceiling %.0f", k.name, got, ceil.bytes)
		}
	}
}

// benchmarkRun measures a full simulation; newCollector nil benchmarks the
// disabled path (the overhead telemetry must not add), non-nil the
// instrumented one.
func benchmarkRun(b *testing.B, newCollector func() *telemetry.Collector) {
	w, err := workloads.Get("sphinx06")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := smallConfig(1)
		cfg.WarmupInstructions = 50_000
		cfg.MeasureInstructions = 200_000
		cfg.L1DPrefetcher = strideFactory
		cfg.Temporal = streamlineFactory
		var col *telemetry.Collector
		if newCollector != nil {
			col = newCollector()
			cfg.Telemetry = col
		}
		sys := New(cfg)
		sys.RunTrace(w.NewTrace(workloads.Scale{Footprint: 0.1}, 1))
		if col != nil {
			if err := col.Close(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkRunTelemetryOff(b *testing.B) {
	benchmarkRun(b, nil)
}

func BenchmarkRunTelemetryOn(b *testing.B) {
	benchmarkRun(b, func() *telemetry.Collector {
		return telemetry.New(telemetry.NewSink(io.Discard), 50_000)
	})
}
