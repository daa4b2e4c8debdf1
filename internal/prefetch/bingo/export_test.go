package bingo

import (
	"fmt"

	"streamline/internal/mem"
)

// Tracker is a region tracker as plain values, for the external lockstep
// test: the region's base line, its trigger, its footprint and the call
// that last touched it.
type Tracker struct {
	Region    mem.Line
	PC        mem.PC
	Offset    int
	Footprint uint32
	Touched   uint64
}

// Tracker returns region tracker i, false when it tracks no region.
func (p *Prefetcher) Tracker(i int) (Tracker, bool) {
	t := p.trackers[i]
	return Tracker{t.region, t.pc, t.offset, t.footprint, t.lru}, t.valid
}

// Long returns the long history as key -> footprint, read slot by slot. It
// fails unless the key count matches the occupied slots and every key's
// lookup finds its own slot.
func (p *Prefetcher) Long() (map[uint64]uint32, error) {
	m := map[uint64]uint32{}
	for i, fp := range p.longFP {
		if fp == 0 {
			continue
		}
		if k := p.longKey[i]; p.longSlot(k) != i {
			return nil, fmt.Errorf("long-history key %#x sits in slot %d, its lookup probes slot %d", k, i, p.longSlot(k))
		}
		m[p.longKey[i]] = fp
	}
	if p.longN != len(m) {
		return nil, fmt.Errorf("long history counts %d keys in %d occupied slots", p.longN, len(m))
	}
	return m, nil
}

// Short returns short-history slot k's footprint, 0 when it is empty.
func (p *Prefetcher) Short(k int) uint32 { return p.shortHis[k] }
