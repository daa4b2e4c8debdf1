// Package berti implements the Berti L1D prefetcher (Navarro-Torres et al.,
// MICRO 2022): for each load PC it learns the local deltas that would have
// been *timely* — deltas from accesses old enough that a prefetch issued
// then would have beaten the current demand — and issues the high-coverage
// ones. Berti is the aggressive L1D baseline of Figure 11a/b.
package berti

import (
	"streamline/internal/mem"
	"streamline/internal/prefetch"
)

// The paper's setup.
const (
	// tableSize is the number of tracked PCs.
	tableSize = 256
	// historyLen is the per-PC access history depth.
	historyLen = 16
	// maxDeltas is how many candidate deltas each PC scores.
	maxDeltas = 8
	// timelyCycles is the fill latency a delta must beat to count as
	// timely (roughly the L2/LLC round trip).
	timelyCycles = 60
	// issueThreshold is the minimum coverage score (0..63) to prefetch a
	// delta.
	issueThreshold = 30
	// maxIssue bounds prefetches per access.
	maxIssue = 4
)

type histEntry struct {
	line mem.Line
	at   uint64
}

// state is one tracked PC's access history and scored deltas. It is
// allocated when a PC first claims a table slot, and every PC that later
// displaces that one reuses it.
type state struct {
	hist  [historyLen]histEntry
	delta [maxDeltas]int64
	score [maxDeltas]int8 // saturating 0..63
}

type entry struct {
	st     *state
	tag    uint32
	histN  uint8 // valid history entries
	deltaN uint8 // tracked deltas
	seen   uint8 // accesses since last score decay
	valid  bool
}

// Prefetcher is the Berti local-delta prefetcher.
type Prefetcher struct {
	table [tableSize]entry
}

// New returns a Berti instance.
func New() *Prefetcher { return &Prefetcher{} }

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "berti" }

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(ev prefetch.Event, out []prefetch.Request) []prefetch.Request {
	line := ev.Line()
	idx := mem.HashPC(ev.PC, 16) % tableSize
	tag := uint32(mem.HashPC(ev.PC, 24))
	e := &p.table[idx]
	if !e.valid || e.tag != tag {
		// The displaced PC's block is reused: hist past histN and the
		// deltas past deltaN are never read.
		st := e.st
		if st == nil {
			st = new(state)
		}
		*e = entry{st: st, tag: tag, valid: true}
	}
	st := e.st

	// Score deltas against history entries old enough to have been timely
	// launch points for this access.
	for _, h := range st.hist[:e.histN] {
		if ev.Now-h.at < timelyCycles {
			continue
		}
		d := int64(line) - int64(h.line)
		if d == 0 {
			continue
		}
		e.bump(d)
	}
	e.seen++
	if e.seen >= 64 {
		e.seen = 0
		for i := range st.score[:e.deltaN] {
			st.score[i] /= 2
		}
	}

	// Push history.
	copy(st.hist[1:], st.hist[:historyLen-1])
	st.hist[0] = histEntry{line: line, at: ev.Now}
	if e.histN < historyLen {
		e.histN++
	}

	// Issue the confident deltas.
	issued := 0
	for i, d := range st.delta[:e.deltaN] {
		if issued >= maxIssue {
			break
		}
		if st.score[i] < issueThreshold {
			continue
		}
		target := int64(line) + d
		if target <= 0 {
			continue
		}
		out = append(out, prefetch.Request{Addr: mem.AddrOf(mem.Line(target))})
		issued++
	}
	return out
}

// bump increments a delta's coverage score, tracking at most maxDeltas
// candidates and evicting the weakest.
func (e *entry) bump(d int64) {
	st := e.st
	weakest, weakestScore := -1, int8(64) // above every score
	for i, sd := range st.delta[:e.deltaN] {
		if sd == d {
			if st.score[i] < 63 {
				st.score[i]++
			}
			return
		}
		if st.score[i] < weakestScore {
			weakest, weakestScore = i, st.score[i]
		}
	}
	if e.deltaN < maxDeltas {
		st.delta[e.deltaN], st.score[e.deltaN] = d, 1
		e.deltaN++
		return
	}
	if weakestScore == 0 {
		st.delta[weakest], st.score[weakest] = d, 1
	}
}
