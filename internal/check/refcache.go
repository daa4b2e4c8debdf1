// Package check is the simulator's executable correctness oracle. Where
// internal/audit verifies structural invariants of the live hierarchy from
// inside a run, this package verifies the hierarchy's *decisions* from
// outside it, three ways:
//
//   - A reference cache (RefCache): a tiny functional model of
//     internal/cache under exact LRU — no timing, no replacement-policy
//     plumbing, no incremental bookkeeping — replayed in lockstep against
//     the real implementation by Shadow, which compares every hit/miss,
//     victim, dirty-bit, and statistics decision. Any divergence is a bug
//     in one of the two implementations (the reference is deliberately
//     written for obviousness, so in practice: in the real one).
//
//   - Conservation laws (SimLaws): counter identities that must hold over
//     every sim.Result — hits+misses=accesses, the per-source partition of
//     prefetch fills into useful / evicted-unused / still-resident, DRAM
//     reads equal to LLC misses plus metadata traffic. The laws themselves
//     live with the counters they relate (the Stats.CounterLaws lists,
//     cache.Stats.LifecycleLaw, sim.Result.Laws); SimLaws applies them to a
//     result. The paper's figures are all *relative* miss/coverage/traffic
//     numbers, so a silent off-by-one in any of these corrupts every
//     reproduced claim; the laws make such a slip fail a test instead.
//
//   - Metamorphic transforms (tests in this package): address translation
//     and warm-split/concatenation identities that relate the results of
//     two different runs exactly, catching bugs no single-run invariant can
//     see (e.g. measured-window snapshot accounting).
//
// The oracle is test-only machinery: nothing in the simulator's hot path
// imports it.
package check

import (
	"streamline/internal/cache"
	"streamline/internal/mem"
)

// refLine is one resident line in the reference model.
type refLine struct {
	valid      bool
	line       mem.Line
	dirty      bool
	prefetched bool
	src        cache.Source
	readyAt    uint64
}

// RefCache is the functional reference model of internal/cache under LRU.
// It keeps per-set recency as an explicit most-recent-first order instead of
// timestamps, scans instead of caching counts, and recomputes instead of
// incrementally tracking — every decision is spelled out in the simplest
// form the semantics allow, so the model is easy to verify by eye.
//
// Modeled semantics (mirroring the real cache's documented contract):
//
//   - a fill on an already-resident line is a refresh, not a new install:
//     the copy keeps its dirty bit, its prefetched/src attribution, and the
//     earlier of the two completion times, and no fill is counted;
//   - fills take the first invalid data way, else the exact-LRU victim;
//   - reserving ways flushes the data lines occupying them; with the whole
//     set reserved a fill is dropped;
//   - demand hits on unused prefetched lines consume the prefetch bit and
//     credit the issuing source (timely or late by fill completion).
//
// Timing (ports, MSHRs) is out of scope: the model answers what happens,
// never when.
type RefCache struct {
	sets, ways int
	reserved   []int
	lines      [][]refLine // [set][way]
	order      [][]int     // [set] -> way indices, most recent first

	Stats cache.Stats
}

// NewRef constructs a reference cache with the given geometry.
func NewRef(sets, ways int) *RefCache {
	r := &RefCache{
		sets:     sets,
		ways:     ways,
		reserved: make([]int, sets),
		lines:    make([][]refLine, sets),
		order:    make([][]int, sets),
	}
	for s := range r.lines {
		r.lines[s] = make([]refLine, ways)
	}
	return r
}

// SetOf returns the set index for a line.
func (r *RefCache) SetOf(l mem.Line) int { return int(uint64(l) & uint64(r.sets-1)) }

// touch moves way to the front of set's recency order.
func (r *RefCache) touch(set, way int) {
	ord := r.order[set]
	for i, w := range ord {
		if w == way {
			copy(ord[1:i+1], ord[:i])
			ord[0] = way
			return
		}
	}
	r.order[set] = append([]int{way}, ord...)
}

// forget removes way from set's recency order.
func (r *RefCache) forget(set, way int) {
	ord := r.order[set]
	for i, w := range ord {
		if w == way {
			r.order[set] = append(ord[:i], ord[i+1:]...)
			return
		}
	}
}

// find returns the data way holding l, or -1.
func (r *RefCache) find(l mem.Line) int {
	set := r.SetOf(l)
	for w := r.reserved[set]; w < r.ways; w++ {
		if r.lines[set][w].valid && r.lines[set][w].line == l {
			return w
		}
	}
	return -1
}

// Probe reports whether l is resident, touching nothing.
func (r *RefCache) Probe(l mem.Line) bool { return r.find(l) >= 0 }

// Lookup mirrors cache.Lookup: counts the access, applies hit-side effects
// on a hit, counts the miss on a demand miss.
func (r *RefCache) Lookup(now uint64, a mem.Access) cache.LookupResult {
	demand := a.Kind.IsDemand()
	if demand {
		r.Stats.DemandAccesses++
	} else if a.Kind == mem.Prefetch {
		r.Stats.PrefetchAccesses++
	}
	res, hit := r.hit(now, a)
	if !hit && demand {
		r.Stats.DemandMisses++
	}
	return res
}

// LookupResident mirrors cache.LookupResident: full hit-side effects on a
// hit, no effect at all on a miss.
func (r *RefCache) LookupResident(now uint64, a mem.Access) (cache.LookupResult, bool) {
	res, hit := r.hit(now, a)
	if hit {
		if a.Kind.IsDemand() {
			r.Stats.DemandAccesses++
		} else if a.Kind == mem.Prefetch {
			r.Stats.PrefetchAccesses++
		}
	}
	return res, hit
}

// hit applies every hit-side effect when the line is resident.
func (r *RefCache) hit(now uint64, a mem.Access) (cache.LookupResult, bool) {
	w := r.find(a.Line())
	if w < 0 {
		return cache.LookupResult{}, false
	}
	set := r.SetOf(a.Line())
	ln := &r.lines[set][w]
	demand := a.Kind.IsDemand()
	var res cache.LookupResult
	res.Hit = true
	late := false
	if ln.readyAt > now {
		res.ExtraWait = ln.readyAt - now
		if demand {
			r.Stats.ExtraWaitCycles += res.ExtraWait
			if ln.prefetched {
				r.Stats.LatePrefetches++
				late = true
			}
		}
	}
	if demand {
		r.Stats.DemandHits++
		if ln.prefetched {
			res.WasPrefetched = true
			ln.prefetched = false
			r.Stats.UsefulPrefetches++
			if late {
				r.Stats.Sources[ln.src].UsefulLate++
			} else {
				r.Stats.Sources[ln.src].UsefulTimely++
			}
		}
	} else if a.Kind == mem.Prefetch {
		r.Stats.PrefetchHits++
	}
	if a.Kind == mem.Store {
		ln.dirty = true
	}
	r.touch(set, w)
	return res, true
}

// Fill mirrors cache.Fill, returning the displaced victim.
func (r *RefCache) Fill(a mem.Access, readyAt uint64, src cache.Source) cache.Victim {
	prefetch := src != cache.SrcDemand
	set := r.SetOf(a.Line())
	lo := r.reserved[set]
	if lo >= r.ways {
		return cache.Victim{}
	}
	if w := r.find(a.Line()); w >= 0 {
		// Refresh in place.
		ln := &r.lines[set][w]
		if a.Kind == mem.Store || a.Kind == mem.Writeback {
			ln.dirty = true
		}
		if readyAt < ln.readyAt {
			ln.readyAt = readyAt
		}
		r.touch(set, w)
		return cache.Victim{}
	}
	way := -1
	for w := lo; w < r.ways; w++ {
		if !r.lines[set][w].valid {
			way = w
			break
		}
	}
	var victim cache.Victim
	if way < 0 {
		// Exact LRU: the least recently touched valid data way.
		ord := r.order[set]
		way = ord[len(ord)-1]
		ln := &r.lines[set][way]
		victim = cache.Victim{Line: ln.line, Dirty: ln.dirty, Prefetched: ln.prefetched, Valid: true}
		r.Stats.Evictions++
		if ln.dirty {
			r.Stats.Writebacks++
		}
		if ln.prefetched {
			r.Stats.UnusedPrefetches++
			r.Stats.Sources[ln.src].EvictedUnused++
		}
		r.forget(set, way)
	}
	if prefetch {
		r.Stats.PrefetchFills++
		r.Stats.Sources[src].Fills++
	}
	r.lines[set][way] = refLine{
		valid:      true,
		line:       a.Line(),
		dirty:      a.Kind == mem.Store || a.Kind == mem.Writeback,
		prefetched: prefetch,
		src:        src,
		readyAt:    readyAt,
	}
	r.touch(set, way)
	return victim
}

// MarkDirty mirrors cache.MarkDirty.
func (r *RefCache) MarkDirty(l mem.Line) bool {
	if w := r.find(l); w >= 0 {
		r.lines[r.SetOf(l)][w].dirty = true
		return true
	}
	return false
}

// Reserve mirrors cache.Reserve: lines occupying newly reserved ways are
// flushed; an unused prefetched line flushed this way was evicted without a
// demand hit, so its lifecycle accounting records it as evicted-unused.
func (r *RefCache) Reserve(s, ways int) (flushed, dirty int) {
	if ways < 0 {
		ways = 0
	}
	if ways > r.ways {
		ways = r.ways
	}
	old := r.reserved[s]
	r.reserved[s] = ways
	for w := old; w < ways; w++ {
		ln := &r.lines[s][w]
		if ln.valid {
			flushed++
			if ln.dirty {
				dirty++
			}
			if ln.prefetched {
				r.Stats.UnusedPrefetches++
				r.Stats.Sources[ln.src].EvictedUnused++
			}
			r.forget(s, w)
			*ln = refLine{}
		}
	}
	return flushed, dirty
}

// OccupiedLines counts valid data lines.
func (r *RefCache) OccupiedLines() int {
	n := 0
	for s := range r.lines {
		for w := r.reserved[s]; w < r.ways; w++ {
			if r.lines[s][w].valid {
				n++
			}
		}
	}
	return n
}
