// Package bingo implements the Bingo spatial prefetcher (Bakhshalipour et
// al., HPCA 2019): it records the footprint of lines touched within a region
// and replays it when the region is re-triggered, matching history first by
// the long event (PC+address) and falling back to the short one (PC+offset).
// Bingo is one of Figure 11c's L2 regular-prefetcher baselines.
package bingo

import (
	"math/bits"

	"streamline/internal/mem"
	"streamline/internal/prefetch"
)

// The published 2KB-region configuration.
const (
	// regionLines is the spatial region size in lines (32: 2KB).
	regionLines = 32
	// trackerSize is the number of regions tracked concurrently.
	trackerSize = 64
	// historySize is the footprint history capacity.
	historySize = 4096
	// longBits sizes the long history's open-addressed table at 2^13
	// slots, twice historySize, so a probe always ends at an empty slot.
	longBits = 13
)

type tracker struct {
	valid     bool
	region    mem.Line // region base line
	footprint uint32
	pc        mem.PC
	offset    int
	lru       uint64
}

// Prefetcher is the Bingo spatial prefetcher. A footprint of 0 marks an
// empty history slot: a committed footprint has at least two bits set.
type Prefetcher struct {
	trackers [trackerSize]tracker
	// longKey and longFP are the long history, PC+address -> footprint,
	// probed linearly from a multiplicative hash of the key; longN counts
	// the keys it holds.
	longKey [1 << longBits]uint64
	longFP  [1 << longBits]uint32
	longN   int
	// shortHis is indexed by PC+offset hashed.
	shortHis [1 << 14]uint32
	clock    uint64
}

// New returns a Bingo instance.
func New() *Prefetcher { return &Prefetcher{} }

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "bingo" }

func longEvent(pc mem.PC, region mem.Line, offset int) uint64 {
	return mem.HashPC(pc, 20)<<40 ^ uint64(region)<<5 ^ uint64(offset)
}

func (p *Prefetcher) shortKey(pc mem.PC, offset int) int {
	return int((mem.HashPC(pc, 20) ^ uint64(offset)<<9) % uint64(len(p.shortHis)))
}

// longSlot returns key's slot in the long history, or the empty slot where
// it would go.
func (p *Prefetcher) longSlot(key uint64) int {
	i := int(key * 0x9e3779b97f4a7c15 >> (64 - longBits))
	for p.longFP[i] != 0 && p.longKey[i] != key {
		i = (i + 1) & (len(p.longKey) - 1)
	}
	return i
}

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(ev prefetch.Event, out []prefetch.Request) []prefetch.Request {
	line := ev.Line()
	region := line / regionLines * regionLines
	offset := int(line - region)
	p.clock++

	// Find or allocate the region tracker.
	var tr *tracker
	victim := 0
	for i := range p.trackers {
		t := &p.trackers[i]
		if t.valid && t.region == region {
			tr = t
			break
		}
		if !t.valid {
			victim = i
			continue
		}
		if p.trackers[victim].valid && t.lru < p.trackers[victim].lru {
			victim = i
		}
	}
	if tr == nil {
		// Evict: commit the old tracker's footprint to history.
		old := &p.trackers[victim]
		if old.valid {
			p.commit(old)
		}
		*old = tracker{
			valid: true, region: region, pc: ev.PC, offset: offset, lru: p.clock,
		}
		tr = old

		// A fresh trigger: predict the footprint from history.
		fp := p.longFP[p.longSlot(longEvent(ev.PC, region, offset))]
		if fp == 0 {
			fp = p.shortHis[p.shortKey(ev.PC, offset)]
		}
		for rest := fp &^ (1 << uint(offset)); rest != 0; rest &= rest - 1 {
			b := bits.TrailingZeros32(rest)
			out = append(out, prefetch.Request{Addr: mem.AddrOf(region + mem.Line(b))})
		}
	}
	tr.footprint |= 1 << uint(offset)
	tr.lru = p.clock
	return out
}

// commit stores a completed region footprint under both event keys.
func (p *Prefetcher) commit(t *tracker) {
	if bits.OnesCount32(t.footprint) < 2 {
		return // single-line regions carry no spatial signal
	}
	if p.longN >= historySize {
		// Cheap wholesale aging: drop the table when full, even if this
		// key is in it, which keeps the table at most half full.
		clear(p.longFP[:])
		p.longN = 0
	}
	key := longEvent(t.pc, t.region, t.offset)
	i := p.longSlot(key)
	if p.longFP[i] == 0 {
		p.longKey[i] = key
		p.longN++
	}
	p.longFP[i] = t.footprint
	p.shortHis[p.shortKey(t.pc, t.offset)] = t.footprint
}
