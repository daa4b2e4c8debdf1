package check

import (
	"testing"
)

// FuzzDifferentialCache feeds arbitrary operation programs to the shadowed
// cache pair: the first two bytes select the geometry, the rest decode (via
// applyOps' total decoder) into lookups, fills, reservations, and dirty
// markings. The property is full behavioral equivalence — every return
// value, every statistics counter, and the complete resident content must
// match the reference LRU model at every checkpoint.
func FuzzDifferentialCache(f *testing.F) {
	// Seed corpus: each seed aims one opcode family at a small geometry so
	// the fuzzer starts adjacent to every interesting interleaving.
	f.Add([]byte{0, 0, 0, 0, 0, 4, 0, 0, 3, 4, 1, 1, 0, 4, 0})                           // fill then demand lookups
	f.Add([]byte{1, 1, 3, 5, 2, 3, 9, 1, 7, 3, 3, 60, 0, 3, 0})                          // prefetch fills + reserve
	f.Add([]byte{2, 0, 7, 2, 8, 7, 4, 2, 1, 12, 2, 2, 5, 2, 0})                          // stores, writebacks, dirty
	f.Add([]byte{0, 7, 15, 0, 15, 7, 6, 15, 1, 6, 15, 0, 14, 8, 2})                      // resident lookups + probes
	f.Add([]byte{4, 3, 11, 3, 11, 40, 0, 11, 0, 7, 11, 4, 3, 11, 7, 7, 11, 0, 0, 11, 0}) // reserve churn over a live line
	// Lines 4 and 148 share a set and a row fingerprint, so only their tags
	// tell them apart: fills, lookups, a whole-set reserve and its release.
	f.Add([]byte{0, 7, 4, 4, 0, 4, 148, 1, 0, 148, 0, 0, 4, 0, 7, 4, 1, 16, 4, 0, 0, 148, 0, 3, 4, 5,
		6, 4, 0, 6, 148, 1, 7, 4, 8, 4, 148, 0, 7, 4, 0, 4, 148, 2, 4, 4, 0, 5, 4, 0, 1, 4, 0, 0, 148, 0})
	for _, tc := range missThenFill {
		f.Add(tc.prog)
	}
	if f.Failed() {
		return
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		sh := NewShadow(shadowGeometry(data[0], data[1]))
		applyOps(sh, data[2:])
		for _, m := range sh.Mismatches() {
			t.Errorf("divergence: %s", m)
		}
	})
}
