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

type deltaScore struct {
	delta int64
	score int // saturating 0..63
}

type entry struct {
	tag    uint32
	valid  bool
	hist   []histEntry
	histN  int
	deltas []deltaScore
	seen   int // accesses since last score decay
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
		// The displaced PC's slices are reused: hist past histN is never read.
		hist, deltas := e.hist, e.deltas[:0]
		if hist == nil {
			hist = make([]histEntry, historyLen)
			deltas = make([]deltaScore, 0, maxDeltas)
		}
		*e = entry{tag: tag, valid: true, hist: hist, deltas: deltas}
	}

	// Score deltas against history entries old enough to have been timely
	// launch points for this access.
	for i := 0; i < e.histN; i++ {
		h := e.hist[i]
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
		for i := range e.deltas {
			e.deltas[i].score /= 2
		}
	}

	// Push history.
	copy(e.hist[1:], e.hist[:len(e.hist)-1])
	e.hist[0] = histEntry{line: line, at: ev.Now}
	if e.histN < len(e.hist) {
		e.histN++
	}

	// Issue the confident deltas.
	issued := 0
	for _, ds := range e.deltas {
		if issued >= maxIssue {
			break
		}
		if ds.score < issueThreshold {
			continue
		}
		target := int64(line) + ds.delta
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
	weakest, weakestScore := -1, 1<<30
	for i := range e.deltas {
		if e.deltas[i].delta == d {
			if e.deltas[i].score < 63 {
				e.deltas[i].score++
			}
			return
		}
		if e.deltas[i].score < weakestScore {
			weakest, weakestScore = i, e.deltas[i].score
		}
	}
	if len(e.deltas) < maxDeltas {
		e.deltas = append(e.deltas, deltaScore{delta: d, score: 1})
		return
	}
	if weakest >= 0 && weakestScore == 0 {
		e.deltas[weakest] = deltaScore{delta: d, score: 1}
	}
}
