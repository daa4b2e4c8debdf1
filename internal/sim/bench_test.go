package sim

import (
	"runtime"
	"testing"
)

// TestKernelAllocsPerRecordCeiling pins the allocation rate of each kernel
// scenario, in mallocs and in bytes. In every scenario the hot path is
// allocation-free after warmup and every set-indexed structure is a handful
// of flat arrays, so what remains is construction cost amortized over a
// short run; the ceilings hold about 2x headroom over current values
// (allocs: 0.0008, 0.0020, 0.0013, 0.0009, 0.0008, 0.0008, 0.0005, 0.0031;
// bytes: 7.7, 16.4, 12.0, 15.1, 3.5, 6.4, 1.7, 20.6; the Triage row read
// 16.5 B while its LUT's reverse index was a Go map; -v prints them) while
// failing loudly on a per-record allocation regression. Bingo's row read
// 7.3 B and Berti's 1.9 B (0.0012 and 0.0005 allocs) while Bingo's long
// history was a Go map and each Berti PC held two slices. Earlier rates,
// for scale: 0.8-2.1
// allocs/record before the hot path was made allocation-free, then 0.02-0.18
// while each set, and each metadata slot's targets, was its own allocation;
// the SPP row read 0.0153 allocs/record while SPP's pattern table was a map
// with a heap object per signature.
// The byte ceiling catches what the count cannot: few but huge allocations,
// such as the whole-lap trace buffers that once put these scenarios at 78,
// 98, 54 and 269 B/record without moving the count, or the 32 B metadata
// slots and the inline issued-line window of every training-unit entry that
// put the three temporal scenarios at 23.4, 23.0 and 31.3 B/record, then a
// PC in every slot record and a 64-bit entry-LRU stamp per slot that held
// them at 18.7, 15.9 and 24.5.
func TestKernelAllocsPerRecordCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("full kernel runs")
	}
	ceilings := map[string]struct{ allocs, bytes float64 }{
		"1core-base-sphinx06":       {0.002, 18},
		"1core-streamline-sphinx06": {0.005, 35},
		"1core-triangel-mcf06":      {0.004, 26},
		"1core-triage-mcf06":        {0.003, 32},
		"1core-spp-bzip206":         {0.002, 8},
		"1core-bingo-bzip206":       {0.002, 13},
		"1core-berti-lbm17":         {0.001, 4},
		"4core-streamline-mix":      {0.007, 44},
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
		allocs := float64(ms1.Mallocs-ms0.Mallocs) / float64(records)
		bytes := float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(records)
		t.Logf("%s: %.4f allocs/record, %.1f B/record", k.name, allocs, bytes)
		if allocs > ceil.allocs {
			t.Errorf("%s: %.4f allocs/record exceeds ceiling %.3f", k.name, allocs, ceil.allocs)
		}
		if bytes > ceil.bytes {
			t.Errorf("%s: %.1f alloc bytes/record exceeds ceiling %.0f", k.name, bytes, ceil.bytes)
		}
	}
}
