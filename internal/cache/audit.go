package cache

import (
	"streamline/internal/audit"
	"streamline/internal/mem"
)

// ForEachLine visits every valid data line (outside reserved ways), for
// cross-level invariant checks at the simulator layer.
func (c *Cache) ForEachLine(f func(set, way int, l mem.Line)) {
	for s := 0; s < c.cfg.Sets; s++ {
		for w := c.ReservedWays(s); w < c.cfg.Ways; w++ {
			if t := c.lines[s*c.cfg.Ways+w].tag; t != noLine {
				f(s, w, t)
			}
		}
	}
}

// LineState is the full observable state of one resident data line, for
// external differential checkers that mirror the cache's contents.
type LineState struct {
	Set, Way   int
	Line       mem.Line
	Dirty      bool
	Prefetched bool
	Src        Source
	ReadyAt    uint64
}

// ForEachLineState visits every valid data line with its complete state, in
// set-then-way order. Read-only; the differential oracle uses it to compare
// the cache's contents against the reference model's.
func (c *Cache) ForEachLineState(f func(LineState)) {
	c.ForEachLine(func(s, w int, t mem.Line) {
		ln := &c.lines[s*c.cfg.Ways+w]
		f(LineState{
			Set: s, Way: w, Line: t,
			Dirty: ln.dirty(), Prefetched: ln.prefetched(),
			Src: ln.src(), ReadyAt: ln.readyAt(),
		})
	})
}

// AuditScan verifies the cache's structural invariants against a, reporting
// each breach at cycle now. All checks are read-only.
//
// Invariants:
//   - tag-array soundness: no duplicate valid line within a set, and no
//     valid data line inside a metadata-reserved way region (the
//     metadata/data exclusion the LLC partitioning relies on);
//   - fingerprint-row agreement: each byte of a set's row is the
//     fingerprint of its way's tag on a valid way, rowEmpty on an empty
//     way, and rowReserved exactly on the reserved prefix and the padding —
//     the row decides hits, so a stale byte would turn a hit into a miss;
//   - fill/eviction balance: incrementally tracked occupancy equals a full
//     scan, so every install, eviction, and reservation flush was accounted;
//   - MSHR hygiene: every MSHRReserve was matched by an MSHRComplete (leak
//     detection; the scan runs between accesses, when none are in flight);
//   - the counter and source-sum identities of Stats.CounterLaws;
//   - Stats.LifecycleLaw, exact: the same scan counts the resident
//     prefetched lines.
func (c *Cache) AuditScan(a *audit.Auditor, now uint64) {
	if a == nil {
		return
	}
	name := c.cfg.Name
	valid := 0
	var residentPF [NumSources]uint64
	for s := 0; s < c.cfg.Sets; s++ {
		lines := c.lines[s*c.cfg.Ways : (s+1)*c.cfg.Ways]
		rsv := c.ReservedWays(s)
		for w := 0; w < c.words*8; w++ {
			want := uint64(rowReserved)
			if w >= rsv && w < c.cfg.Ways {
				want = rowEmpty
				if t := lines[w].tag; t != noLine {
					want = fingerprint(t)
				}
			}
			if got := c.row(s)[w>>3] >> (w & 7 * 8) & 0xFF; got != want {
				a.Reportf(now, name, "fingerprint-row",
					"set %d way %d row byte %#x, want %#x (%d reserved ways of %d)",
					s, w, got, want, rsv, c.cfg.Ways)
			}
		}
		for w := range lines {
			ln := &lines[w]
			t := ln.tag
			if t == noLine {
				continue
			}
			valid++
			if ln.prefetched() && w >= rsv {
				residentPF[ln.src()]++
			}
			if w < rsv {
				a.Reportf(now, name, "data-in-reserved-way",
					"set %d way %d holds line %#x inside the %d reserved ways",
					s, w, uint64(t), rsv)
			}
			for w2 := w + 1; w2 < c.cfg.Ways; w2++ {
				if lines[w2].tag == t {
					a.Reportf(now, name, "duplicate-line",
						"set %d holds line %#x in ways %d and %d",
						s, uint64(t), w, w2)
				}
			}
		}
	}
	if valid != c.occupied {
		a.Reportf(now, name, "fill-evict-balance",
			"scan finds %d valid lines, incremental accounting says %d", valid, c.occupied)
	}
	if c.mshrPending != 0 {
		a.Reportf(now, name, "mshr-leak",
			"%d MSHR reservation(s) never completed", c.mshrPending)
	}
	fail := func(rule, format string, args ...any) {
		a.Reportf(now, name, rule, format, args...)
	}
	c.Stats.CounterLaws(fail)
	c.Stats.LifecycleLaw(&residentPF, fail)
}

// LifecycleLaw reports each source whose prefetched lines left the cache
// unaccounted: every fill ends useful, evicted unused, or still resident.
// With resident, the per-source resident prefetched lines a scan counted
// (AuditScan), the law is exact; with nil (sim.Result.Laws) it is the bound
// fills >= useful + evicted-unused. Both need counts kept from an empty cache.
func (st *Stats) LifecycleLaw(resident *[NumSources]uint64, fail func(rule, format string, args ...any)) {
	for src, ss := range &st.Sources {
		useful := ss.UsefulTimely + ss.UsefulLate
		left := useful + ss.EvictedUnused
		if resident == nil && left <= ss.Fills || resident != nil && left+resident[src] == ss.Fills {
			continue
		}
		var res any = ">= 0"
		if resident != nil {
			res = resident[src]
		}
		fail("lifecycle-partition", "source %s: fills %d != useful %d + evicted-unused %d + resident %v",
			Source(src), ss.Fills, useful, ss.EvictedUnused, res)
	}
}

// CounterLaws reports every counter identity st breaks, as an audit rule name
// and a message, and formats nothing while they all hold. The identities are
// window-safe — both sides of each move in the same simulator step — so they
// hold for a running cache (AuditScan), for a whole run, and for the delta
// over any measured window (check.SimLaws):
//
//   - demand hits + misses = accesses; prefetch hits never exceed prefetch
//     accesses, useful prefetches demand hits, late prefetches useful ones,
//     or writebacks evictions;
//   - the aggregate prefetch counters equal the sum of their per-source
//     attributions, and SrcDemand carries none.
func (st *Stats) CounterLaws(fail func(rule, format string, args ...any)) {
	if st.DemandHits+st.DemandMisses != st.DemandAccesses {
		fail("demand-accounting", "demand hits %d + misses %d != accesses %d",
			st.DemandHits, st.DemandMisses, st.DemandAccesses)
	}
	if st.PrefetchHits > st.PrefetchAccesses {
		fail("prefetch-hit-accounting", "prefetch hits %d > prefetch accesses %d",
			st.PrefetchHits, st.PrefetchAccesses)
	}
	if st.UsefulPrefetches > st.DemandHits {
		fail("useful-exceeds-hits", "useful prefetches %d > demand hits %d",
			st.UsefulPrefetches, st.DemandHits)
	}
	if st.LatePrefetches > st.UsefulPrefetches {
		fail("late-exceeds-useful", "late prefetches %d > useful prefetches %d",
			st.LatePrefetches, st.UsefulPrefetches)
	}
	if st.Writebacks > st.Evictions {
		fail("writebacks-exceed-evictions", "writebacks %d > evictions %d",
			st.Writebacks, st.Evictions)
	}
	var fills, timely, late, evicted uint64
	for _, ss := range &st.Sources {
		fills += ss.Fills
		timely += ss.UsefulTimely
		late += ss.UsefulLate
		evicted += ss.EvictedUnused
	}
	if fills != st.PrefetchFills {
		fail("source-sum", "per-source fills sum to %d, aggregate PrefetchFills is %d",
			fills, st.PrefetchFills)
	}
	if timely+late != st.UsefulPrefetches {
		fail("source-sum", "per-source useful sum to %d, aggregate UsefulPrefetches is %d",
			timely+late, st.UsefulPrefetches)
	}
	if late != st.LatePrefetches {
		fail("source-sum", "per-source useful-late sum to %d, aggregate LatePrefetches is %d",
			late, st.LatePrefetches)
	}
	if evicted != st.UnusedPrefetches {
		fail("source-sum", "per-source evicted-unused sum to %d, aggregate UnusedPrefetches is %d",
			evicted, st.UnusedPrefetches)
	}
	if d := st.Sources[SrcDemand]; d != (SourceStats{}) {
		fail("source-sum", "SrcDemand carries prefetch lifecycle counts %+v", d)
	}
}
