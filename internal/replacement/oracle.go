package replacement

import (
	"container/heap"

	"streamline/internal/mem"
)

// This file implements the offline oracles of Section IV-D1. Belady's MIN,
// applied to temporal-prefetch metadata the way Triage did, maximizes
// *trigger* hits: it evicts the entry whose trigger address is referenced
// furthest in the future. The paper's TP-MIN instead maximizes *correlation*
// hits: it evicts the entry whose exact (trigger -> target) correlation
// recurs furthest in the future, so triggers with unstable targets — which
// would only generate useless prefetches — are discarded early (Figure 6).
//
// Both oracles replay a correlation stream (the sequence of consecutive-
// access pairs a temporal prefetcher would train on) through a fully
// associative metadata store of fixed capacity and report hit statistics.

// Correlation is one observed (trigger, target) pair in training order.
type Correlation struct {
	Trigger mem.Line
	Target  mem.Line
}

// OracleKind selects which future-knowledge policy an oracle run uses.
type OracleKind int

const (
	// MIN evicts the entry whose trigger is referenced furthest in the
	// future (trigger-hit-optimal, as prior work applied Belady to
	// metadata).
	MIN OracleKind = iota
	// TPMIN evicts the entry whose exact correlation recurs furthest in
	// the future (correlation-hit-optimal; the paper's reformulation).
	TPMIN
)

// String names the oracle kind.
func (k OracleKind) String() string {
	if k == TPMIN {
		return "tp-min"
	}
	return "min"
}

// OracleStats summarizes an oracle replay.
type OracleStats struct {
	// Lookups is the number of correlations replayed.
	Lookups uint64
	// TriggerHits counts lookups whose trigger was resident.
	TriggerHits uint64
	// CorrelationHits counts lookups whose resident entry also predicted
	// the correct target — i.e. prefetches that would have been useful.
	CorrelationHits uint64
}

// TriggerHitRate returns the fraction of lookups whose trigger was resident.
func (s OracleStats) TriggerHitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.TriggerHits) / float64(s.Lookups)
}

// CorrelationHitRate returns the fraction of lookups that would have issued
// a correct prefetch.
func (s OracleStats) CorrelationHitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.CorrelationHits) / float64(s.Lookups)
}

const oracleNever = int(^uint(0) >> 1) // sentinel: no future use

// ReplayOracle replays the correlation stream through a fully associative
// metadata store holding capacity entries, using the given oracle's eviction
// rule, and returns hit statistics. The store is keyed by trigger: storing a
// correlation for a trigger overwrites that trigger's previous target,
// exactly like a pairwise metadata store with one target per trigger.
func ReplayOracle(stream []Correlation, capacity int, kind OracleKind) OracleStats {
	if capacity <= 0 {
		return OracleStats{Lookups: uint64(len(stream))}
	}

	// Precompute, for each position, the next position at which the same
	// key (trigger for MIN, full correlation for TP-MIN) appears.
	nextUse := make([]int, len(stream))
	switch kind {
	case MIN:
		last := make(map[mem.Line]int, len(stream))
		for i := len(stream) - 1; i >= 0; i-- {
			if n, ok := last[stream[i].Trigger]; ok {
				nextUse[i] = n
			} else {
				nextUse[i] = oracleNever
			}
			last[stream[i].Trigger] = i
		}
	case TPMIN:
		last := make(map[Correlation]int, len(stream))
		for i := len(stream) - 1; i >= 0; i-- {
			if n, ok := last[stream[i]]; ok {
				nextUse[i] = n
			} else {
				nextUse[i] = oracleNever
			}
			last[stream[i]] = i
		}
	}

	// Residents sit in a max-heap on eviction order, so picking a victim is
	// the root and a trigger hit re-sorts one entry in place.
	store := make(map[mem.Line]*oracleEntry, capacity)
	residents := make(oracleHeap, 0, capacity)

	var stats OracleStats
	for i, c := range stream {
		stats.Lookups++
		if e, ok := store[c.Trigger]; ok {
			stats.TriggerHits++
			if e.target == c.Target {
				stats.CorrelationHits++
			}
			// Update in place: new target, new future-use time.
			e.target, e.nextUse = c.Target, nextUse[i]
			heap.Fix(&residents, e.idx)
			continue
		}
		if nextUse[i] == oracleNever {
			// Neither oracle caches an entry with no future use; MIN would
			// also skip triggers that never recur, and TP-MIN skips
			// correlations that never recur.
			continue
		}
		if len(residents) < capacity {
			e := &oracleEntry{trigger: c.Trigger, target: c.Target, nextUse: nextUse[i]}
			store[c.Trigger] = e
			heap.Push(&residents, e)
			continue
		}
		victim := residents[0]
		if victim.nextUse <= nextUse[i] && victim.nextUse != oracleNever {
			// The incoming entry is the furthest-future one: bypass.
			continue
		}
		// The incoming entry takes the victim's place at the root.
		delete(store, victim.trigger)
		victim.trigger, victim.target, victim.nextUse = c.Trigger, c.Target, nextUse[i]
		store[c.Trigger] = victim
		heap.Fix(&residents, 0)
	}
	return stats
}

// oracleEntry is one resident correlation; idx is its position in the heap.
type oracleEntry struct {
	trigger, target mem.Line
	nextUse, idx    int
}

// oracleHeap orders residents by eviction preference: the entry used
// furthest in the future first. Next-use positions are distinct except among
// entries that are never used again (a trigger hit can leave one resident);
// those tie-break to the lower trigger so the replay is deterministic.
type oracleHeap []*oracleEntry

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].nextUse != h[j].nextUse {
		return h[i].nextUse > h[j].nextUse
	}
	return h[i].trigger < h[j].trigger
}
func (h oracleHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *oracleHeap) Push(x any) {
	e := x.(*oracleEntry)
	e.idx = len(*h)
	*h = append(*h, e)
}

// Pop is never called — a victim is replaced at the root, not removed — but
// heap.Interface requires it.
func (h *oracleHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// CorrelationsOf converts an address stream into the correlation stream a
// pairwise temporal prefetcher would train on: each consecutive pair of
// lines becomes one correlation.
func CorrelationsOf(lines []mem.Line) []Correlation {
	if len(lines) < 2 {
		return nil
	}
	out := make([]Correlation, 0, len(lines)-1)
	for i := 1; i < len(lines); i++ {
		out = append(out, Correlation{Trigger: lines[i-1], Target: lines[i]})
	}
	return out
}
