package check

import (
	"fmt"

	"streamline/internal/cache"
	"streamline/internal/dram"
	"streamline/internal/sim"
)

// Conservation laws: counter identities every run must satisfy, split into
// two classes.
//
// Window-safe laws relate counters whose increments are paired — both sides
// move in the same simulator step — so they hold over any delta window
// (measured-phase results with a warmup) as well as whole runs.
//
// Whole-run laws additionally rely on events before the window: a line
// filled during warmup can be evicted during measurement, so "fills bound
// useful + evicted" only holds when counting starts from an empty cache.
// Apply them only when the statistics cover a run from cycle zero.

// CacheLaws checks the window-safe identities of one cache level's stats —
// cache.Stats.CounterLaws, the list the runtime audit reports too. It returns
// a description of each violated law (empty means all hold).
func CacheLaws(name string, st cache.Stats) []string {
	var v []string
	st.CounterLaws(func(_, format string, args ...any) {
		v = append(v, name+": "+fmt.Sprintf(format, args...))
	})
	return v
}

// CacheWholeRunLaws checks the whole-run identities of one cache level's
// stats on top of the window-safe set: per source, the fills bound the
// useful + evicted-unused outcomes (the remainder being lines still
// resident). Valid only for statistics counted from an empty cache.
func CacheWholeRunLaws(name string, st cache.Stats) []string {
	v := CacheLaws(name, st)
	for src, ss := range &st.Sources {
		if ss.UsefulTimely+ss.UsefulLate+ss.EvictedUnused > ss.Fills {
			v = append(v, fmt.Sprintf(
				"%s: source %s useful %d + evicted-unused %d exceed fills %d",
				name, cache.Source(src), ss.UsefulTimely+ss.UsefulLate,
				ss.EvictedUnused, ss.Fills))
		}
	}
	return v
}

// DRAMLaws checks DRAM counter identities: every read resolves to exactly
// one of row hit, row miss, or row conflict (window-safe: the outcome is
// classified in the same step the read is counted).
func DRAMLaws(name string, d dram.Stats) []string {
	var v []string
	if d.RowHits+d.RowMisses+d.RowConflicts != d.Reads {
		v = append(v, fmt.Sprintf(
			"%s: row hits %d + misses %d + conflicts %d != reads %d",
			name, d.RowHits, d.RowMisses, d.RowConflicts, d.Reads))
	}
	return v
}

// CoreLaws checks one core's measured-phase result. Window-safe: each
// level's CacheLaws, the per-engine issue attribution summing to the
// core total, and — because an issued prefetch installs exactly one line at
// its engine's private level in the same step — per-engine fills equal to
// issues. wholeRun additionally enables the per-level lifecycle bounds.
func CoreLaws(name string, cr sim.CoreResult, wholeRun bool) []string {
	lvl := CacheLaws
	if wholeRun {
		lvl = CacheWholeRunLaws
	}
	v := append(lvl(name+"/L1D", cr.L1D), lvl(name+"/L2", cr.L2)...)
	var issued uint64
	for _, p := range cr.Prefetchers {
		issued += p.Issued
		if p.Fills != p.Issued {
			v = append(v, fmt.Sprintf("%s: engine %s filled %d lines for %d issued prefetches",
				name, p.Source, p.Fills, p.Issued))
		}
		if p.UsefulTimely+p.UsefulLate+p.EvictedUnused > p.Fills && wholeRun {
			v = append(v, fmt.Sprintf(
				"%s: engine %s useful %d + evicted-unused %d exceed fills %d",
				name, p.Source, p.UsefulTimely+p.UsefulLate, p.EvictedUnused, p.Fills))
		}
	}
	if issued != cr.PrefetchesIssued {
		v = append(v, fmt.Sprintf("%s: per-engine issues sum to %d, core total is %d",
			name, issued, cr.PrefetchesIssued))
	}
	return v
}

// MetaDRAMTraffic is DRAM traffic issued by a temporal prefetcher's
// metadata machinery directly against the system DRAM (the STMS
// configuration; LLC-partition metadata never reaches DRAM). SimLaws needs
// it to balance the DRAM ledger.
type MetaDRAMTraffic struct {
	Reads  uint64
	Writes uint64
}

// SimLaws checks a full result: per-core laws, the LLC and DRAM identities
// (always whole-run — Result reports shared resources from cycle zero), and
// the cross-level ledger:
//
//   - every DRAM read is an LLC demand miss, an LLC prefetch miss, or a
//     metadata read (exact — the LLC allocates no MSHRs, so misses never
//     merge);
//   - DRAM writes cover at least the LLC's dirty evictions plus metadata
//     writes (upper-level writebacks that miss the LLC and repartition
//     flushes add more).
//
// wholeRun marks runs with no warmup, enabling the whole-run core laws.
func SimLaws(r sim.Result, meta MetaDRAMTraffic, wholeRun bool) []string {
	var v []string
	for i, cr := range r.Cores {
		v = append(v, CoreLaws(fmt.Sprintf("core%d", i), cr, wholeRun)...)
	}
	v = append(v, CacheWholeRunLaws("LLC", r.LLC)...)
	v = append(v, DRAMLaws("DRAM", r.DRAM)...)
	llcMisses := r.LLC.DemandMisses + (r.LLC.PrefetchAccesses - r.LLC.PrefetchHits)
	if want := llcMisses + meta.Reads; r.DRAM.Reads != want {
		v = append(v, fmt.Sprintf(
			"DRAM reads %d != LLC demand misses %d + prefetch misses %d + metadata reads %d",
			r.DRAM.Reads, r.LLC.DemandMisses,
			r.LLC.PrefetchAccesses-r.LLC.PrefetchHits, meta.Reads))
	}
	if r.DRAM.Writes < r.LLC.Writebacks+meta.Writes {
		v = append(v, fmt.Sprintf(
			"DRAM writes %d < LLC writebacks %d + metadata writes %d",
			r.DRAM.Writes, r.LLC.Writebacks, meta.Writes))
	}
	return v
}
