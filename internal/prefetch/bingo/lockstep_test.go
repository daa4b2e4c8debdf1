package bingo_test

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"streamline/internal/mem"
	"streamline/internal/prefetch"
	"streamline/internal/prefetch/bingo"
	"streamline/internal/prefetch/ptest"
)

// refBingo is Bingo written from its DESIGN.md row, in the external test
// package, so it shares nothing with the engine but mem and prefetch: up
// to 64 tracked regions, a map long history of at most 4096 keys, made
// afresh whenever it ages, and 16,384 short-history slots. It also counts
// the cases the lockstep stream has to reach.
type refBingo struct {
	calls   uint64
	regions map[mem.Line]*refRegion // by base line
	long    map[uint64]uint32
	short   []uint32

	longHits, shortHits, agings, presentAgings int
	// aged says whether the last call aged the long history.
	aged bool
}

type refRegion struct {
	pc        mem.PC
	offset    int
	footprint uint32
	touched   uint64 // the call that last touched it
}

func newRef() *refBingo {
	return &refBingo{regions: map[mem.Line]*refRegion{}, long: map[uint64]uint32{}, short: make([]uint32, 1<<14)}
}

func longKey(pc mem.PC, region mem.Line, offset int) uint64 {
	return mem.HashPC(pc, 20)<<40 ^ uint64(region)<<5 ^ uint64(offset)
}

func shortSlot(pc mem.PC, offset int) int {
	return int((mem.HashPC(pc, 20) ^ uint64(offset)<<9) % (1 << 14))
}

// Train: an access to an untracked region opens a tracker for it, first
// committing the least recently touched of 64, and prefetches the lines of
// its long-history footprint, else its short-history one, but its own.
// Every access sets its offset's bit and touches its region's tracker.
func (r *refBingo) Train(ev prefetch.Event, out []prefetch.Request) []prefetch.Request {
	r.calls++
	r.aged = false
	line := mem.LineOf(ev.Addr)
	region := line / 32 * 32
	offset := int(line - region)
	t := r.regions[region]
	if t == nil {
		if len(r.regions) == 64 {
			var lru mem.Line
			for g, o := range r.regions {
				if r.regions[lru] == nil || o.touched < r.regions[lru].touched {
					lru = g
				}
			}
			r.commit(lru, r.regions[lru])
			delete(r.regions, lru)
		}
		t = &refRegion{pc: ev.PC, offset: offset}
		r.regions[region] = t
		fp, ok := r.long[longKey(ev.PC, region, offset)]
		switch {
		case ok:
			r.longHits++
		case r.short[shortSlot(ev.PC, offset)] != 0:
			fp = r.short[shortSlot(ev.PC, offset)]
			r.shortHits++
		}
		for b := range 32 {
			if fp>>b&1 == 1 && b != offset {
				out = append(out, prefetch.Request{Addr: mem.AddrOf(region + mem.Line(b))})
			}
		}
	}
	t.footprint |= 1 << offset
	t.touched = r.calls
	return out
}

// commit keeps a footprint of at least 2 bits under both of its trigger's
// events, a long history of 4096 keys first replaced by an empty one.
func (r *refBingo) commit(region mem.Line, t *refRegion) {
	if bits.OnesCount32(t.footprint) < 2 {
		return
	}
	key := longKey(t.pc, region, t.offset)
	if len(r.long) == 4096 {
		if _, ok := r.long[key]; ok {
			r.presentAgings++
		}
		r.long = map[uint64]uint32{}
		r.agings++
		r.aged = true
	}
	r.long[key] = t.footprint
	r.short[shortSlot(t.pc, t.offset)] = t.footprint
}

// lockstepEvents returns n training events in region visits: a visit picks
// one of six PCs and one of 6,000 regions (enough commits to age the long
// history), enters at an offset fixed by the pair or, now and then, at a
// random one, and touches one to six offsets of a footprint fixed by the PC
// and the region's residue.
func lockstepEvents(n int) []prefetch.Event {
	rng := rand.New(rand.NewSource(49))
	evs := make([]prefetch.Event, 0, n)
	for len(evs) < n {
		pc := rng.Intn(6)
		r := rng.Intn(6000)
		base := mem.Line(1<<20 + r*32)
		off := (pc*7 + r) % 32
		if rng.Intn(8) == 0 {
			off = rng.Intn(32)
		}
		for k := rng.Intn(6); k >= 0 && len(evs) < n; k-- {
			evs = append(evs, prefetch.Event{
				Now: uint64(len(evs)), PC: mem.PC(0x400000 + pc*8), Addr: mem.AddrOf(base + mem.Line(off)),
			})
			off = (off + 1 + (pc+r%5)*k) % 32
		}
	}
	return evs
}

// TestLockstepWithReference runs Bingo in lockstep with the reference
// written from its description, comparing the trackers after every call,
// the long history after every call that ages it, and both histories every
// 1,024 calls and at the end.
func TestLockstepWithReference(t *testing.T) {
	p, ref := bingo.New(), newRef()
	sameLong := func() error { return sameLong(p, ref) }
	ptest.Lockstep{
		Engine: p.Train, Ref: ref.Train, Events: lockstepEvents(200_000),
		Step: func(int) error {
			n := 0
			for i := range 64 {
				got, ok := p.Tracker(i)
				if !ok {
					continue
				}
				n++
				w := ref.regions[got.Region]
				if w == nil || got != (bingo.Tracker{got.Region, w.pc, w.offset, w.footprint, w.touched}) {
					return fmt.Errorf("tracker %d is %+v, reference %+v", i, got, w)
				}
			}
			if n != len(ref.regions) {
				return fmt.Errorf("%d regions tracked, reference %d", n, len(ref.regions))
			}
			if ref.aged {
				return sameLong()
			}
			return nil
		},
		Tables: func(int) error {
			for k, want := range ref.short {
				if got := p.Short(k); got != want {
					return fmt.Errorf("short-history slot %d holds %#x, reference %#x", k, got, want)
				}
			}
			return sameLong()
		},
		Needs: []ptest.Need{
			ptest.AtLeast(1, "long-history predictions", &ref.longHits),
			ptest.AtLeast(1, "short-history predictions", &ref.shortHits),
			ptest.AtLeast(2, "long-history agings, each compared at once", &ref.agings),
			ptest.AtLeast(1, "agings on a key already present", &ref.presentAgings),
		},
	}.Run(t)
}

// sameLong fails unless p's long history holds the reference's keys and
// footprints.
func sameLong(p *bingo.Prefetcher, ref *refBingo) error {
	got, err := p.Long()
	if err == nil && !reflect.DeepEqual(got, ref.long) {
		err = fmt.Errorf("long history holds %d keys, reference %d, not the same", len(got), len(ref.long))
	}
	return err
}

// agingEvents sweeps regions regions laps times under one PC, touching 2..5
// offsets of each from trigger offset r%3. Regions that share a trigger
// offset have different footprints, so a prediction from the long history
// (PC+address) differs from the short one's (PC+offset): whether a region's
// long entry survived aging shows in its prediction.
func agingEvents(regions, laps int) []prefetch.Event {
	var evs []prefetch.Event
	for range laps {
		for r := range regions {
			base := mem.Line(r * 32)
			for o := range 2 + r%4 {
				evs = append(evs, prefetch.Event{Now: uint64(len(evs)), PC: 1, Addr: mem.AddrOf(base + mem.Line(o*5+r%3))})
			}
		}
	}
	return evs
}

// TestAgingMatchesFreshMap crosses the long-history aging point at least
// twice and checks every prediction against the reference, which moves to
// a freshly made map at each aging, so the cleared table must behave as a
// new one. The long histories are compared right after every aging.
func TestAgingMatchesFreshMap(t *testing.T) {
	p, ref := bingo.New(), newRef()
	requests := 0
	ptest.Lockstep{
		Engine: p.Train,
		Ref: func(ev prefetch.Event, out []prefetch.Request) []prefetch.Request {
			n := len(out)
			out = ref.Train(ev, out)
			requests += len(out) - n
			return out
		},
		Events: agingEvents(4096*3/2, 3),
		Step: func(int) error {
			if ref.aged {
				return sameLong(p, ref)
			}
			return nil
		},
		Needs: []ptest.Need{
			ptest.AtLeast(2, "long-history agings, each compared at once", &ref.agings),
			ptest.AtLeast(1, "requests", &requests),
		},
	}.Run(t)
}

// TestTrainAllocatesNothing: a constructed Bingo commits footprints, ages
// its long history and replays predictions without allocating.
func TestTrainAllocatesNothing(t *testing.T) {
	ptest.TrainAllocatesNothing(t, factory, lockstepEvents(50_000), false)
}

// BenchmarkTrain trains one Bingo over a fixed 16,384-event slice of the
// lockstep stream, on which it replays footprints, cycled through.
func BenchmarkTrain(b *testing.B) { ptest.BenchmarkTrain(b, bingo.New(), lockstepEvents(1<<14)) }
