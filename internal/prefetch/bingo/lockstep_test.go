package bingo

import (
	"fmt"
	"math/rand"

	"streamline/internal/mem"
	"streamline/internal/prefetch"
)

// Ref is Bingo as it stood with a Go map for its long history and a
// {footprint, valid} record in every short-history slot: the reference the
// open-addressed long history and the 4 B short slots must match decision
// for decision. It also counts, for the external lockstep test, the cases
// the lockstep stream has to reach.
type Ref struct {
	trackers [trackerSize]tracker
	longHist map[uint64]uint32
	shortHis []refHistory
	clock    uint64

	LongHits, ShortHits, Agings, PresentAgings int
}

type refHistory struct {
	footprint uint32
	valid     bool
}

// NewRef returns an empty reference.
func NewRef() *Ref {
	return &Ref{
		longHist: make(map[uint64]uint32, historySize),
		shortHis: make([]refHistory, 1<<14),
	}
}

func (p *Ref) longKey(pc mem.PC, region mem.Line, offset int) uint64 {
	return mem.HashPC(pc, 20)<<40 ^ uint64(region)<<5 ^ uint64(offset)
}

func (p *Ref) shortKey(pc mem.PC, offset int) int {
	return int((mem.HashPC(pc, 20) ^ uint64(offset)<<9) % uint64(len(p.shortHis)))
}

func (p *Ref) Train(ev prefetch.Event, out []prefetch.Request) []prefetch.Request {
	line := ev.Line()
	region := line / regionLines * regionLines
	offset := int(line - region)
	p.clock++

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
		old := &p.trackers[victim]
		if old.valid {
			p.commit(old)
		}
		*old = tracker{
			valid: true, region: region, pc: ev.PC, offset: offset, lru: p.clock,
		}
		tr = old

		fp, ok := p.longHist[p.longKey(ev.PC, region, offset)]
		if ok {
			p.LongHits++
		} else {
			h := p.shortHis[p.shortKey(ev.PC, offset)]
			if h.valid {
				fp, ok = h.footprint, true
				p.ShortHits++
			}
		}
		if ok {
			for b := 0; b < regionLines; b++ {
				if fp&(1<<uint(b)) != 0 && b != offset {
					out = append(out, prefetch.Request{
						Addr: mem.AddrOf(region + mem.Line(b)),
					})
				}
			}
		}
	}
	tr.footprint |= 1 << uint(offset)
	tr.lru = p.clock
	return out
}

func (p *Ref) commit(t *tracker) {
	n := 0
	for x := t.footprint; x != 0; x &= x - 1 {
		n++
	}
	if n < 2 {
		return
	}
	key := p.longKey(t.pc, t.region, t.offset)
	if len(p.longHist) >= historySize {
		if _, ok := p.longHist[key]; ok {
			p.PresentAgings++
		}
		clear(p.longHist)
		p.Agings++
	}
	p.longHist[key] = t.footprint
	p.shortHis[p.shortKey(t.pc, t.offset)] = refHistory{footprint: t.footprint, valid: true}
}

// LockstepEvents returns n training events in region visits: a visit picks
// one of six PCs and one of 6,000 regions (enough commits to age the long
// history), enters at an offset fixed by the pair or, now and then, at a
// random one, and touches one to six offsets of a footprint fixed by the PC
// and the region's residue.
func LockstepEvents(n int) []prefetch.Event {
	rng := rand.New(rand.NewSource(49))
	evs := make([]prefetch.Event, 0, n)
	for len(evs) < n {
		pc := rng.Intn(6)
		r := rng.Intn(6000)
		base := mem.Line(1<<20 + r*regionLines)
		off := (pc*7 + r) % regionLines
		if rng.Intn(8) == 0 {
			off = rng.Intn(regionLines)
		}
		for k := rng.Intn(6); k >= 0 && len(evs) < n; k-- {
			evs = append(evs, prefetch.Event{
				Now: uint64(len(evs)), PC: mem.PC(0x400000 + pc*8), Addr: mem.AddrOf(base + mem.Line(off)),
			})
			off = (off + 1 + (pc+r%5)*k) % regionLines
		}
	}
	return evs
}

// sameLongHistory reports unless Bingo's long history holds exactly the
// reference map: as many occupied slots as keys, the count matching, and
// each key's footprint found where a lookup probes for it.
func sameLongHistory(p *Prefetcher, want map[uint64]uint32) error {
	occupied := 0
	for i, fp := range p.longFP {
		if fp == 0 {
			continue
		}
		occupied++
		if k := p.longKey[i]; want[k] != fp {
			return fmt.Errorf("long-history slot %d holds key %#x -> %#x, reference %#x", i, k, fp, want[k])
		}
	}
	if occupied != len(want) || p.longN != len(want) {
		return fmt.Errorf("long history occupies %d slots and counts %d, reference holds %d keys", occupied, p.longN, len(want))
	}
	for k, fp := range want {
		if got := p.longFP[p.longSlot(k)]; got != fp {
			return fmt.Errorf("long-history key %#x looks up %#x, reference %#x", k, got, fp)
		}
	}
	return nil
}

// SameTrackers compares Bingo's region trackers with the reference's.
func SameTrackers(p *Prefetcher, r *Ref) error {
	if p.trackers != r.trackers {
		return fmt.Errorf("region trackers differ from the reference")
	}
	return nil
}

// SameHistories compares both of Bingo's histories with the reference's.
func SameHistories(p *Prefetcher, r *Ref) error {
	for k, h := range r.shortHis {
		if fp := p.shortHis[k]; (fp != 0) != h.valid || fp != h.footprint {
			return fmt.Errorf("short-history slot %d holds %#x, reference %+v", k, fp, h)
		}
	}
	return sameLongHistory(p, r.longHist)
}
