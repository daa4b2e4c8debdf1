// Package prefetch defines the interface between the simulator's cache
// hierarchy and its hardware prefetchers, plus shared plumbing. Concrete
// prefetchers live in subpackages (stride, berti, ipcp, bingo, spp, triage,
// triangel) and in internal/core (Streamline).
package prefetch

import (
	"streamline/internal/mem"
	"streamline/internal/meta"
)

// Event describes one demand access observed at a prefetcher's attach
// level. Temporal prefetchers attach to the L2 and are fed misses and
// prefetch hits; L1 prefetchers see every L1D access.
type Event struct {
	// Now is the core cycle at which the access reached the attach level.
	Now uint64
	// PC is the load/store instruction's program counter.
	PC mem.PC
	// Addr is the full byte address (prefetchers that work at line
	// granularity call Line()).
	Addr mem.Addr
	// IsStore marks write accesses.
	IsStore bool
	// Hit reports whether the access hit at the attach level.
	Hit bool
	// PrefetchHit reports a demand hit on a line a prefetch installed —
	// the "prefetch hit" training signal of the temporal prefetchers.
	PrefetchHit bool
}

// Line returns the accessed cache line.
func (e *Event) Line() mem.Line { return mem.LineOf(e.Addr) }

// Request is a prefetch the prefetcher asks the hierarchy to issue.
type Request struct {
	// Addr is the byte address to prefetch (line-aligned is fine).
	Addr mem.Addr
	// Delay is the extra issue latency already incurred before the
	// request can leave the prefetcher — for temporal prefetchers, the
	// metadata read time.
	Delay uint64
}

// Prefetcher is a hardware prefetcher. Train observes one event and appends
// any requests to out, returning the extended slice (the caller recycles the
// buffer to keep the hot path allocation-free).
type Prefetcher interface {
	Name() string
	Train(ev Event, out []Request) []Request
}

// AccuracyConsumer is implemented by prefetchers whose policies depend on
// observed global prefetch accuracy — Streamline's utility-aware dynamic
// partitioner scores metadata hits with it (Section IV-E4). The simulator
// delivers epoch accuracy every 2048 prefetch fills.
type AccuracyConsumer interface {
	ObserveAccuracy(acc float64)
}

// MetaReporter is implemented by temporal prefetchers so the simulator can
// include their metadata-store statistics in results.
type MetaReporter interface {
	MetaStats() meta.Stats
}

// LLCDataObserver is implemented by temporal prefetchers whose dynamic
// partitioner profiles the utility of LLC data capacity; the simulator
// feeds it the core's LLC data accesses.
type LLCDataObserver interface {
	ObserveLLCData(set int, line mem.Line)
}

// Nil is the absent prefetcher: it never issues requests.
type Nil struct{}

// Name implements Prefetcher.
func (Nil) Name() string { return "none" }

// Train implements Prefetcher.
func (Nil) Train(_ Event, out []Request) []Request { return out }
