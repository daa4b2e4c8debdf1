package cache

import (
	"testing"

	"streamline/internal/audit"
	"streamline/internal/mem"
)

// Negative tests: each audit rule must actually fire when its invariant is
// broken, so a clean conformance run attests to real checking rather than
// vacuous passes.

func auditRules(c *Cache) map[string]int {
	a := audit.New(0)
	c.AuditScan(a, 0)
	rules := map[string]int{}
	for _, v := range a.Violations() {
		rules[v.Rule]++
	}
	return rules
}

func propCache() *Cache {
	c := New(Config{Name: "t", Sets: 4, Ways: 4, Latency: 1, MSHRs: 4, Ports: 1})
	for i := 0; i < 8; i++ {
		l := mem.Line(i * 5)
		c.Lookup(uint64(i), mem.Access{Addr: mem.AddrOf(l), Kind: mem.Load})
		c.Fill(mem.Access{Addr: mem.AddrOf(l), Kind: mem.Load}, uint64(i), SrcDemand)
	}
	return c
}

func TestAuditDetectsOccupancyImbalance(t *testing.T) {
	c := propCache()
	if r := auditRules(c); len(r) != 0 {
		t.Fatalf("clean cache reports violations: %v", r)
	}
	c.occupied++
	if r := auditRules(c); r["fill-evict-balance"] == 0 {
		t.Fatalf("corrupted occupancy not detected: %v", r)
	}
}

func TestAuditDetectsMSHRLeak(t *testing.T) {
	c := propCache()
	c.MSHRReserve(100) // never completed
	if r := auditRules(c); r["mshr-leak"] == 0 {
		t.Fatalf("leaked MSHR reservation not detected: %v", r)
	}
}

func TestAuditDetectsDuplicateLine(t *testing.T) {
	c := propCache()
	// Plant the same line twice in one set, bypassing Fill's dedup.
	for w := 0; w < 2; w++ {
		c.lines[w].tag = mem.Line(64)
		c.setRow(0, w, fingerprint(64))
	}
	c.occupied = c.OccupiedLines() // keep the balance check quiet
	if r := auditRules(c); r["duplicate-line"] == 0 {
		t.Fatalf("duplicate line not detected: %v", r)
	}
}

func TestAuditDetectsDataInReservedWay(t *testing.T) {
	c := propCache()
	// Reserve over resident lines without flushing them.
	c.setRow(0, 0, rowReserved)
	c.setRow(0, 1, rowReserved)
	if r := auditRules(c); r["data-in-reserved-way"] == 0 {
		t.Fatalf("stranded data line in reserved region not detected: %v", r)
	}
}

// TestAuditDetectsStaleFingerprintRow: the row decides hits, so every byte
// that disagrees with the tags must fire the rule — a wrong fingerprint or an
// empty mark on a valid way (a hit turned miss), a reserved mark after a data
// way, and a padding byte that is not rowReserved.
func TestAuditDetectsStaleFingerprintRow(t *testing.T) {
	// propCache's set 0 holds lines 0 and 20 in ways 0 and 1; ways 2 and 3
	// are empty, and bytes 4..7 of its one-word row are padding.
	for _, tc := range []struct {
		name string
		way  int
		b    uint64
	}{
		{"wrong-fingerprint", 0, fingerprint(0) ^ 1},
		{"valid-marked-empty", 1, rowEmpty},
		{"reserved-after-data", 2, rowReserved},
		{"empty-marked-valid", 3, fingerprint(0)},
		{"padding-marked-empty", 5, rowEmpty},
	} {
		c := propCache()
		if r := auditRules(c); len(r) != 0 {
			t.Fatalf("clean cache reports violations: %v", r)
		}
		c.setRow(0, tc.way, tc.b)
		if r := auditRules(c); r["fingerprint-row"] == 0 {
			t.Errorf("%s: stale row byte not detected: %v", tc.name, r)
		}
	}
	c := propCache()
	c.setRow(0, 1, rowEmpty)
	if c.Probe(20) {
		t.Error("line 20 still hits with its row byte marked empty")
	}
}

func TestAuditDetectsCounterDrift(t *testing.T) {
	c := propCache()
	c.Stats.DemandHits++
	if r := auditRules(c); r["demand-accounting"] == 0 {
		t.Fatalf("hit/miss/access drift not detected: %v", r)
	}
}

// pfCache is propCache plus one resident prefetched line, so the
// source-attribution rules have lifecycle counts to audit.
func pfCache() *Cache {
	c := propCache()
	c.Fill(mem.Access{Addr: mem.AddrOf(mem.Line(100)), Kind: mem.Prefetch}, 50, SrcL2)
	return c
}

func TestAuditDetectsSourceSumDrift(t *testing.T) {
	c := pfCache()
	if r := auditRules(c); len(r) != 0 {
		t.Fatalf("clean cache reports violations: %v", r)
	}
	// An aggregate increment with no matching per-source attribution.
	c.Stats.PrefetchFills++
	if r := auditRules(c); r["source-sum"] == 0 {
		t.Fatalf("per-source/aggregate fill drift not detected: %v", r)
	}
}

func TestAuditDetectsDemandSourceContamination(t *testing.T) {
	c := pfCache()
	// A prefetch lifecycle count attributed to the demand pseudo-source.
	c.Stats.Sources[SrcDemand].UsefulTimely++
	c.Stats.UsefulPrefetches++
	c.Stats.DemandHits++ // keep useful<=hits and source-sum quiet elsewhere
	c.Stats.DemandAccesses++
	if r := auditRules(c); r["source-sum"] == 0 {
		t.Fatalf("SrcDemand contamination not detected: %v", r)
	}
}

func TestAuditDetectsLifecycleLeak(t *testing.T) {
	c := pfCache()
	// An eviction that both the per-source and aggregate counters recorded,
	// but for a line the scan still finds resident: the partition no longer
	// closes even though every source-sum identity holds.
	c.Stats.Sources[SrcL2].EvictedUnused++
	c.Stats.UnusedPrefetches++
	r := auditRules(c)
	if r["lifecycle-partition"] == 0 {
		t.Fatalf("lifecycle leak not detected: %v", r)
	}
	if r["source-sum"] != 0 {
		t.Fatalf("source-sum fired on a balanced perturbation: %v", r)
	}
}
