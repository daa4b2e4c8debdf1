package check

import (
	"strings"
	"testing"

	"streamline/internal/cache"
	"streamline/internal/sim"
)

// balancedStats builds a cache.Stats satisfying every law (the fixture the
// negative tests perturb).
func balancedStats() cache.Stats {
	var st cache.Stats
	st.DemandAccesses = 100
	st.DemandHits = 70
	st.DemandMisses = 30
	st.PrefetchAccesses = 20
	st.PrefetchHits = 5
	st.PrefetchFills = 40
	st.UsefulPrefetches = 25
	st.LatePrefetches = 10
	st.UnusedPrefetches = 8
	st.Evictions = 50
	st.Writebacks = 12
	st.Sources[cache.SrcL2] = cache.SourceStats{
		Fills: 30, UsefulTimely: 10, UsefulLate: 8, EvictedUnused: 6,
	}
	st.Sources[cache.SrcTemporal] = cache.SourceStats{
		Fills: 10, UsefulTimely: 5, UsefulLate: 2, EvictedUnused: 2,
	}
	return st
}

// balancedResult builds a one-core sim.Result satisfying every law: balanced
// levels, per-engine attribution that sums to the core total, and a DRAM
// whose reads are exactly the LLC's misses.
func balancedResult() sim.Result {
	r := sim.Result{
		Cores: []sim.CoreResult{{
			L1D: balancedStats(), L2: balancedStats(),
			PrefetchesIssued: 9,
			Prefetchers: []sim.PrefetcherResult{
				{Source: "l1", Issued: 3, Fills: 3, UsefulTimely: 1},
				{Source: "l2", Issued: 4, Fills: 4},
				{Source: "temporal", Issued: 2, Fills: 2, UsefulLate: 1},
			},
		}},
		LLC: balancedStats(),
	}
	misses := r.LLC.DemandMisses + r.LLC.PrefetchAccesses - r.LLC.PrefetchHits
	r.DRAM.Reads, r.DRAM.RowMisses, r.DRAM.Writes = misses, misses, r.LLC.Writebacks
	return r
}

// mentions fails t unless one violation contains every string in want.
func mentions(t *testing.T, v []string, want ...string) {
	t.Helper()
next:
	for _, s := range v {
		for _, w := range want {
			if !strings.Contains(s, w) {
				continue next
			}
		}
		return
	}
	t.Fatalf("violations %q: none mentions all of %q", v, want)
}

func TestCacheLawsHoldOnBalancedStats(t *testing.T) {
	if v := SimLaws(balancedResult(), MetaDRAMTraffic{}, true); len(v) != 0 {
		t.Fatalf("balanced fixture violates laws: %v", v)
	}
}

// TestCacheLawsDetectViolations perturbs one core's L2 in the balanced
// result one counter at a time and asserts SimLaws names the matching law —
// every cache counter law is reachable through it.
func TestCacheLawsDetectViolations(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*cache.Stats)
		mention string
	}{
		{"demand-balance", func(s *cache.Stats) { s.DemandMisses++ }, "demand hits"},
		{"prefetch-hits", func(s *cache.Stats) { s.PrefetchHits = s.PrefetchAccesses + 1 }, "prefetch hits"},
		{"useful-bound", func(s *cache.Stats) { s.UsefulPrefetches = s.DemandHits + 1 }, "useful prefetches"},
		{"late-bound", func(s *cache.Stats) { s.LatePrefetches = s.UsefulPrefetches + 1 }, "late prefetches"},
		{"writeback-bound", func(s *cache.Stats) { s.Writebacks = s.Evictions + 1 }, "writebacks"},
		{"source-fills", func(s *cache.Stats) { s.Sources[cache.SrcL2].Fills++ }, "per-source fills"},
		{"source-useful", func(s *cache.Stats) { s.UsefulPrefetches++ }, "per-source useful"},
		{"source-late", func(s *cache.Stats) { s.Sources[cache.SrcL2].UsefulLate-- }, "useful-late"},
		{"source-evicted", func(s *cache.Stats) { s.UnusedPrefetches-- }, "evicted-unused"},
		{"demand-source", func(s *cache.Stats) { s.Sources[cache.SrcDemand].Fills++ }, "SrcDemand"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := balancedResult()
			tc.mutate(&r.Cores[0].L2)
			mentions(t, SimLaws(r, MetaDRAMTraffic{}, false), "core0/L2: ", tc.mention)
		})
	}
}

func TestWholeRunLawsDetectLifecycleLeak(t *testing.T) {
	r := balancedResult()
	// More outcomes than fills for the temporal source: a line left the
	// cache twice, or a fill went uncounted.
	l2 := &r.Cores[0].L2
	l2.Sources[cache.SrcTemporal].EvictedUnused += 9
	l2.UnusedPrefetches += 9
	mentions(t, SimLaws(r, MetaDRAMTraffic{}, true), "core0/L2: source temporal")
	// The same stats are legal under window semantics (warmup fills can
	// produce measured-phase outcomes).
	if v := SimLaws(r, MetaDRAMTraffic{}, false); len(v) != 0 {
		t.Fatalf("window-safe laws should accept warmup overdraw, got %v", v)
	}
	// The LLC reports from cycle zero, so its bound holds in either mode.
	r = balancedResult()
	r.LLC.Sources[cache.SrcL2].EvictedUnused += 20
	r.LLC.UnusedPrefetches += 20
	mentions(t, SimLaws(r, MetaDRAMTraffic{}, false), "LLC: source l2")
}

func TestDRAMLawsDetectUnclassifiedRead(t *testing.T) {
	r := balancedResult()
	// A read counted without a row outcome; the ledger still balances.
	r.DRAM.RowMisses--
	mentions(t, SimLaws(r, MetaDRAMTraffic{}, false), "DRAM: row hits")
}

func TestCoreLawsDetectAttributionDrift(t *testing.T) {
	bad := balancedResult()
	bad.Cores[0].PrefetchesIssued++
	mentions(t, SimLaws(bad, MetaDRAMTraffic{}, false), "core0: per-engine issues sum to 9, core total is 10")
	bad2 := balancedResult()
	bad2.Cores[0].Prefetchers[1].Fills++
	mentions(t, SimLaws(bad2, MetaDRAMTraffic{}, false), "core0: engine l2 filled 5 lines for 4 issued")
}

func TestSimLawsDetectDRAMLedgerDrift(t *testing.T) {
	r := balancedResult()
	// A phantom DRAM read (or a dropped LLC miss) breaks the ledger.
	r.DRAM.Reads++
	r.DRAM.RowMisses++
	mentions(t, SimLaws(r, MetaDRAMTraffic{}, false), "DRAM reads 46 != LLC demand misses 30")
	// Metadata traffic balances it again.
	if v := SimLaws(r, MetaDRAMTraffic{Reads: 1}, false); len(v) != 0 {
		t.Fatalf("metadata-balanced ledger rejected: %v", v)
	}
	// Missing writeback traffic.
	r.DRAM.Writes = r.LLC.Writebacks - 1
	mentions(t, SimLaws(r, MetaDRAMTraffic{Reads: 1}, false), "DRAM writes 11 < LLC writebacks 12")
}
