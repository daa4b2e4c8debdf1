package sim

import (
	"fmt"

	"streamline/internal/audit"
	"streamline/internal/cache"
	"streamline/internal/mem"
	"streamline/internal/meta"
	"streamline/internal/prefetch/stms"
)

// defaultAuditInterval is the number of trace records between periodic full
// invariant scans when Config.AuditInterval is zero.
const defaultAuditInterval = 4096

// coreLineStride is the per-core line-address stripe width implied by
// coreAddrStride: core c's lines all satisfy line>>38 == c.
const coreLineStride = uint64(coreAddrStride) >> mem.LineShift

// storeProvider is implemented by temporal prefetchers whose metadata lives
// in a meta.Store (Triage, Triangel, Streamline); the audit uses it for the
// partition-sum cross-check.
type storeProvider interface {
	Store() *meta.Store
}

// auditTick runs the periodic scan cadence; Engine.Step calls it after every
// trace record when auditing is enabled.
func (s *System) auditTick(cs *coreState) {
	s.sinceScan++
	every := s.cfg.AuditInterval
	if every == 0 {
		every = defaultAuditInterval
	}
	if s.sinceScan >= every {
		s.sinceScan = 0
		s.auditScan(cs.core.Now())
	}
}

// auditScan runs one full invariant sweep over every component at cycle now.
// Every check is read-only; an audited run's statistics are byte-identical
// to an unaudited one.
func (s *System) auditScan(now uint64) {
	a := s.cfg.Audit
	if a == nil {
		return
	}
	a.CountScan()
	for _, cs := range s.cores {
		cs.core.AuditScan(a, now)
		cs.l1d.AuditScan(a, now)
		cs.l2.AuditScan(a, now)
		s.auditStripe(a, now, cs)
	}
	s.llc.AuditScan(a, now)
	s.dram.AuditScan(a, now)
	s.auditPartitions(a, now)
}

// auditStripe checks core address-space isolation: demand and prefetch
// traffic for core c is striped into [c<<38, (c+1)<<38) line space, so a
// line outside that stripe in a private cache means one core's prefetcher
// reached into another core's address space.
func (s *System) auditStripe(a *audit.Auditor, now uint64, cs *coreState) {
	want := uint64(cs.id)
	check := func(name string) func(int, int, mem.Line) {
		return func(set, way int, l mem.Line) {
			if uint64(l)/coreLineStride != want {
				a.Reportf(now, name, "stripe-isolation",
					"core %d set %d way %d holds line %#x from core %d's stripe",
					cs.id, set, way, uint64(l), uint64(l)/coreLineStride)
			}
		}
	}
	cs.l1d.ForEachLine(check("L1D"))
	cs.l2.ForEachLine(check("L2"))
}

// auditPartitions cross-checks the metadata partition sums: the ways the LLC
// actually reserves must account for exactly the bytes every core's metadata
// store believes it holds. Skipped when metadata is dedicated (nothing is
// reserved) or when any core's temporal prefetcher does not expose a
// meta.Store (the STMS baseline keeps metadata in DRAM).
func (s *System) auditPartitions(a *audit.Auditor, now uint64) {
	if s.cfg.DedicatedMetadata {
		return
	}
	want := 0
	any := false
	for _, cs := range s.cores {
		sp, ok := cs.tempf.(storeProvider)
		if !ok {
			continue
		}
		st := sp.Store()
		if st == nil {
			return
		}
		any = true
		want += st.ReservedBlocks()
		st.AuditScan(a, now)
	}
	if !any {
		return
	}
	// Each reserved way slot in a physical set holds one 64B block.
	got := 0
	for set := 0; set < s.llc.Sets(); set++ {
		got += s.llc.ReservedWays(set)
	}
	if got != want {
		a.Reportf(now, "sim", "partition-sum",
			"LLC reserves %d blocks but stores account for %d", got, want)
	}
}

// MetaDRAMTraffic is DRAM traffic temporal-prefetcher metadata issued
// directly, past the LLC: only STMS has any (its index and GHB are off-chip).
type MetaDRAMTraffic struct {
	Reads  uint64
	Writes uint64
}

// metaDRAMTraffic sums every core's off-chip metadata traffic of the run.
func (s *System) metaDRAMTraffic() MetaDRAMTraffic {
	var t MetaDRAMTraffic
	for _, cs := range s.cores {
		if p, ok := cs.tempf.(*stms.Prefetcher); ok {
			t.Reads += p.Stats.IndexReads + p.Stats.GHBReads
			t.Writes += p.Stats.IndexWrites + p.Stats.GHBWrites
		}
	}
	return t
}

// Laws reports every cross-level law r breaks, as an audit rule name and a
// message; each level's own identities are its Stats.CounterLaws. meta is
// the run's off-chip metadata traffic; wholeRun marks per-core counts kept
// from cycle zero (no warmup), as Result's LLC and DRAM always are.
//
//   - engine-fills: an issued prefetch installs one line at its engine's
//     level in the same step, so per engine fills = issues in any window;
//   - engine-issue-sum: per-engine issues sum to the core total;
//   - dram-read-ledger: DRAM reads = LLC demand misses + LLC prefetch
//     misses + metadata reads, exactly (the LLC has no MSHRs to merge misses);
//   - dram-write-bound: DRAM writes >= LLC writebacks + metadata writes
//     (flushes and upper-level writebacks that miss the LLC add more);
//   - lifecycle-partition: cache.Stats.LifecycleLaw's bound on the LLC, and
//     on every L1D and L2 when wholeRun.
func (r Result) Laws(meta MetaDRAMTraffic, wholeRun bool, fail func(rule, format string, args ...any)) {
	lifecycle := func(name string, st *cache.Stats) {
		st.LifecycleLaw(nil, func(rule, format string, args ...any) {
			fail(rule, name+": "+format, args...)
		})
	}
	for i, cr := range r.Cores {
		var issued uint64
		for _, p := range cr.Prefetchers {
			issued += p.Issued
			if p.Fills != p.Issued {
				fail("engine-fills", "core%d: engine %s filled %d lines for %d issued prefetches",
					i, p.Source, p.Fills, p.Issued)
			}
		}
		if issued != cr.PrefetchesIssued {
			fail("engine-issue-sum", "core%d: per-engine issues sum to %d, core total is %d",
				i, issued, cr.PrefetchesIssued)
		}
		if wholeRun {
			lifecycle(fmt.Sprintf("core%d/L1D", i), &cr.L1D)
			lifecycle(fmt.Sprintf("core%d/L2", i), &cr.L2)
		}
	}
	lifecycle("LLC", &r.LLC)
	prefetchMisses := r.LLC.PrefetchAccesses - r.LLC.PrefetchHits
	if r.DRAM.Reads != r.LLC.DemandMisses+prefetchMisses+meta.Reads {
		fail("dram-read-ledger",
			"DRAM reads %d != LLC demand misses %d + prefetch misses %d + metadata reads %d",
			r.DRAM.Reads, r.LLC.DemandMisses, prefetchMisses, meta.Reads)
	}
	if r.DRAM.Writes < r.LLC.Writebacks+meta.Writes {
		fail("dram-write-bound", "DRAM writes %d < LLC writebacks %d + metadata writes %d",
			r.DRAM.Writes, r.LLC.Writebacks, meta.Writes)
	}
}
