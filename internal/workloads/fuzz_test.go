package workloads

import (
	"testing"

	"streamline/internal/mem"
	"streamline/internal/trace"
)

// fuzzRecords pulls n records from a fresh trace of w.
func fuzzRecords(w Workload, fp float64, seed int64, n int) []trace.Record {
	tr := w.NewTrace(Scale{Footprint: fp}, seed)
	out := make([]trace.Record, 0, n)
	for len(out) < n {
		r, ok := tr.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}

// FuzzTraceGenerators fuzzes every workload generator over (workload, seed,
// footprint) and checks the properties the simulator depends on:
//
//   - determinism: two traces built from the same (scale, seed) emit
//     identical record streams, and Reset after any k records reproduces the
//     first k — the foundation of the golden-stats and parallel-vs-serial
//     tests, and of the simulator's rewind at the end of a trace;
//   - address hygiene: every address lies in the generator arena region
//     [arenaBase, arenaBase+2^31), so per-core striping in the simulator
//     (stride 2^44) can never collide across cores;
//   - bounded footprint: the distinct-line count of a generous prefix stays
//     within the arena bound above, so a fuzzed footprint cannot make a
//     workload outgrow the address budget.
func FuzzTraceGenerators(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(10), uint16(100))
	f.Add(uint8(3), int64(42), uint8(1), uint16(chunkRecords))
	f.Add(uint8(7), int64(-5), uint8(25), uint16(3999))
	f.Add(uint8(200), int64(1<<40), uint8(0), uint16(0))
	f.Fuzz(func(t *testing.T, widx uint8, seed int64, fpRaw uint8, resetAt uint16) {
		ws := All()
		w := ws[int(widx)%len(ws)]
		// Footprint in (0, 0.32]: small enough to stay fast, varied enough
		// to hit the size-scaling paths (including the 64-element floor).
		fp := float64(fpRaw%32+1) / 100
		const n = 4000

		recs := fuzzRecords(w, fp, seed, n)
		if len(recs) == 0 {
			t.Fatalf("%s: empty trace", w.Name)
		}
		again := fuzzRecords(w, fp, seed, n)
		if len(again) != len(recs) {
			t.Fatalf("%s: rerun emitted %d records, first run %d", w.Name, len(again), len(recs))
		}

		distinct := map[mem.Line]struct{}{}
		for i, r := range recs {
			if r != again[i] {
				t.Fatalf("%s: record %d differs across identical builds: %+v vs %+v",
					w.Name, i, r, again[i])
			}
			if r.Addr < arenaBase || r.Addr >= arenaBase+(1<<31) {
				t.Fatalf("%s: record %d address %#x outside the arena region",
					w.Name, i, uint64(r.Addr))
			}
			distinct[mem.LineOf(r.Addr)] = struct{}{}
		}
		if len(distinct)*mem.LineSize > 1<<31 {
			t.Fatalf("%s: footprint %.2f touches %d distinct lines (> 2GiB)",
				w.Name, fp, len(distinct))
		}

		// Reset after k records must reproduce the first k.
		k := int(resetAt) % (len(recs) + 1)
		tr := w.NewTrace(Scale{Footprint: fp}, seed)
		for pass, what := range []string{"pre-reset", "post-reset"} {
			if pass == 1 {
				tr.Reset()
			}
			for i := 0; i < k; i++ {
				if r, ok := tr.Next(); !ok || r != recs[i] {
					t.Fatalf("%s: %s record %d of %d diverges", w.Name, what, i, k)
				}
			}
		}
	})
}
