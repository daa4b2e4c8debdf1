// Package meta implements the on-chip temporal-prefetch metadata substrate:
// the storage organizations of Triage, Triangel, and Streamline, living in a
// partition of the LLC. One generic store covers both metadata formats
// (pairwise and stream-based) and all eight partitioning schemes of Table I
// — {Rearranged, Filtered} indexing x {Untagged, Tagged} x {Way, Set}
// partitioning — so the paper's partitioning study is a configuration sweep
// rather than eight implementations.
//
// The store accounts for every block of LLC traffic it generates: lookup
// reads, insertion writes, and — for rearranged indexing — the shuffle
// traffic each repartition causes (the cost Streamline's filtered indexing
// eliminates, Section IV-C).
package meta

import (
	"fmt"

	"streamline/internal/mem"
)

// Entry is one metadata entry: a trigger line and the correlated targets
// that followed it. Pairwise formats have exactly one target; Streamline's
// stream entries have StreamLength targets. Conf is the format's confidence
// bit: set once the entry has been re-stored with identical targets, and
// cleared when a store overwrites it with different ones — an unstable
// (frequently re-targeted) trigger never confirms.
type Entry struct {
	Trigger mem.Line
	Targets []mem.Line
	Conf    bool
}

// Valid reports whether the entry holds at least one target.
func (e *Entry) Valid() bool { return len(e.Targets) > 0 }

// Bridge connects a metadata store to its host LLC. The simulator's bridge
// charges port contention and latency on the real LLC and carves capacity
// out of it; a dedicated-storage bridge (Triangel-Ideal in Figure 13a)
// reserves nothing.
type Bridge interface {
	// MetaAccess charges one metadata block access beginning at cycle now
	// and returns its latency.
	MetaAccess(now uint64, kind mem.Kind) uint64
	// ReserveWays reserves the low ways of an LLC set for metadata
	// (ways=0 releases the set back to data).
	ReserveWays(set, ways int)
	// Geometry returns the host LLC's sets and ways.
	Geometry() (sets, ways int)
}

// NullBridge is a Bridge with no host LLC: fixed-latency metadata access and
// no capacity accounting. It models dedicated metadata storage and serves
// unit tests.
type NullBridge struct {
	Sets, Ways int
	Latency    uint64
	Reads      uint64
	Writes     uint64
}

// MetaAccess implements Bridge.
func (b *NullBridge) MetaAccess(_ uint64, kind mem.Kind) uint64 {
	if kind == mem.MetaWrite {
		b.Writes++
	} else {
		b.Reads++
	}
	return b.Latency
}

// ReserveWays implements Bridge (no capacity to reserve).
func (b *NullBridge) ReserveWays(int, int) {}

// Geometry implements Bridge.
func (b *NullBridge) Geometry() (int, int) { return b.Sets, b.Ways }

// Format selects the metadata entry layout.
type Format int

const (
	// Pairwise stores (trigger, target) pairs: Triangel's uncompressed
	// format, 12 correlations per 64B block.
	Pairwise Format = iota
	// PairwiseCompressed is Triage's LUT-compressed pairwise format,
	// 16 correlations per block (at an accuracy cost modeled by the
	// Triage prefetcher, not the store).
	PairwiseCompressed
	// Stream stores length-K streams: Streamline's format.
	Stream
)

// String names the format.
func (f Format) String() string {
	switch f {
	case Pairwise:
		return "pairwise"
	case PairwiseCompressed:
		return "pairwise-compressed"
	case Stream:
		return "stream"
	default:
		return fmt.Sprintf("format(%d)", int(f))
	}
}

// CorrelationsPerBlock returns how many correlations one 64B metadata block
// holds under the format. For streams this matches the paper's Section V-C1
// accounting: lengths 2, 3 and 5 hold 14, 15 and 15 correlations; lengths
// 4, 8 and 16 hold the full 16.
func CorrelationsPerBlock(f Format, streamLen int) int {
	switch f {
	case Pairwise:
		return 12
	case PairwiseCompressed:
		return 16
	case Stream:
		switch {
		case streamLen < 2:
			return 12
		case streamLen == 2:
			return 14
		case streamLen == 3:
			return 15
		case streamLen == 4:
			return 16
		case streamLen == 5:
			return 15
		default: // 8, 16, ... pack evenly; longer streams hold one entry
			n := 16 / streamLen
			if n < 1 {
				n = 1
			}
			return n * streamLen
		}
	default:
		return 12
	}
}

// EntriesPerBlock returns how many entries of the format fit in a block.
func EntriesPerBlock(f Format, streamLen int) int {
	if f == Stream {
		if streamLen < 1 {
			streamLen = 1
		}
		n := CorrelationsPerBlock(f, streamLen) / streamLen
		if n < 1 {
			n = 1
		}
		return n
	}
	return CorrelationsPerBlock(f, streamLen)
}

// Stats counts metadata store events and LLC traffic (in 64B blocks).
type Stats struct {
	Lookups     uint64 // store lookups (after any prefetcher-side buffering)
	TriggerHits uint64 // lookups that found the trigger
	Inserts     uint64 // new entries written
	Updates     uint64 // in-place overwrites of an existing trigger's entry

	Reads  uint64 // LLC blocks read (lookups)
	Writes uint64 // LLC blocks written (inserts/updates)

	RearrangeReads  uint64 // shuffle traffic from repartitioning
	RearrangeWrites uint64

	FilteredInserts uint64 // entries dropped by filtered indexing
	FilteredLookups uint64 // lookups short-circuited by filtered indexing

	AliasedInserts uint64 // inserts constrained by partial-tag aliasing
	Evictions      uint64 // entries displaced by replacement
	DroppedResize  uint64 // entries lost when a resize shrank the store
	Resizes        uint64
}

// Traffic returns total metadata blocks moved to/from the LLC, including
// rearrangement traffic.
func (s Stats) Traffic() uint64 {
	return s.Reads + s.Writes + s.RearrangeReads + s.RearrangeWrites
}

// TriggerHitRate returns trigger hits over lookups.
func (s Stats) TriggerHitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.TriggerHits) / float64(s.Lookups)
}
