package bingo

import (
	"math/rand"
	"testing"

	"streamline/internal/mem"
	"streamline/internal/prefetch"
)

// refBingo is Bingo as it stood with a Go map for its long history and a
// {footprint, valid} record in every short-history slot: the reference the
// open-addressed long history and the 4 B short slots must match decision
// for decision. It also counts the cases the lockstep stream has to reach.
type refBingo struct {
	trackers [trackerSize]tracker
	longHist map[uint64]uint32
	shortHis []refHistory
	clock    uint64

	longHits, shortHits, agings, presentAgings int
}

type refHistory struct {
	footprint uint32
	valid     bool
}

func newRef() *refBingo {
	return &refBingo{
		longHist: make(map[uint64]uint32, historySize),
		shortHis: make([]refHistory, 1<<14),
	}
}

func (p *refBingo) longKey(pc mem.PC, region mem.Line, offset int) uint64 {
	return mem.HashPC(pc, 20)<<40 ^ uint64(region)<<5 ^ uint64(offset)
}

func (p *refBingo) shortKey(pc mem.PC, offset int) int {
	return int((mem.HashPC(pc, 20) ^ uint64(offset)<<9) % uint64(len(p.shortHis)))
}

func (p *refBingo) Train(ev prefetch.Event, out []prefetch.Request) []prefetch.Request {
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
			p.longHits++
		} else {
			h := p.shortHis[p.shortKey(ev.PC, offset)]
			if h.valid {
				fp, ok = h.footprint, true
				p.shortHits++
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

func (p *refBingo) commit(t *tracker) {
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
			p.presentAgings++
		}
		clear(p.longHist)
		p.agings++
	}
	p.longHist[key] = t.footprint
	p.shortHis[p.shortKey(t.pc, t.offset)] = refHistory{footprint: t.footprint, valid: true}
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

// checkLongHistory fails unless Bingo's long history holds exactly the
// reference map: as many occupied slots as keys, the count matching, and
// each key's footprint found where a lookup probes for it.
func checkLongHistory(t *testing.T, at int, p *Prefetcher, want map[uint64]uint32) {
	t.Helper()
	occupied := 0
	for i, fp := range p.longFP {
		if fp == 0 {
			continue
		}
		occupied++
		if k := p.longKey[i]; want[k] != fp {
			t.Fatalf("event %d: long-history slot %d holds key %#x -> %#x, reference %#x", at, i, k, fp, want[k])
		}
	}
	if occupied != len(want) || p.longN != len(want) {
		t.Fatalf("event %d: long history occupies %d slots and counts %d, reference holds %d keys", at, occupied, p.longN, len(want))
	}
	for k, fp := range want {
		if got := p.longFP[p.longSlot(k)]; got != fp {
			t.Fatalf("event %d: long-history key %#x looks up %#x, reference %#x", at, k, got, fp)
		}
	}
}

// TestLockstepWithReference drives Bingo and the map reference with the
// same events and compares the requests and trackers after every call and
// both histories every 1,024 calls and at the end.
func TestLockstepWithReference(t *testing.T) {
	p, ref := New(), newRef()
	var got, want []prefetch.Request
	evs := lockstepEvents(200_000)
	for i, ev := range evs {
		got = p.Train(ev, got[:0])
		want = ref.Train(ev, want[:0])
		if len(got) != len(want) {
			t.Fatalf("event %d: %d requests, reference %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("event %d request %d: %+v, reference %+v", i, j, got[j], want[j])
			}
		}
		if p.trackers != ref.trackers {
			t.Fatalf("event %d: region trackers differ from the reference", i)
		}
		if i%1024 != 1023 && i != len(evs)-1 {
			continue
		}
		for k, h := range ref.shortHis {
			if fp := p.shortHis[k]; (fp != 0) != h.valid || fp != h.footprint {
				t.Fatalf("event %d: short-history slot %d holds %#x, reference %+v", i, k, fp, h)
			}
		}
		checkLongHistory(t, i, p, ref.longHist)
	}
	t.Logf("%d long-history hits, %d short-history hits, %d agings (%d on a key already present)",
		ref.longHits, ref.shortHits, ref.agings, ref.presentAgings)
	if ref.longHits == 0 || ref.shortHits == 0 || ref.agings < 2 || ref.presentAgings == 0 {
		t.Fatal("the stream must predict from both histories and age the long one twice, once on a key already present")
	}
}

// TestTrainAllocatesNothing: a constructed Bingo commits footprints, ages
// its long history and replays predictions without allocating.
func TestTrainAllocatesNothing(t *testing.T) {
	evs := lockstepEvents(50_000)
	ps := []*Prefetcher{New(), New(), New()}
	out := make([]prefetch.Request, 0, regionLines)
	run := 0
	allocs := testing.AllocsPerRun(len(ps)-1, func() {
		p := ps[run]
		run++
		for _, ev := range evs {
			out = p.Train(ev, out[:0])
		}
	})
	if allocs != 0 {
		t.Errorf("Train allocated %.1f times over %d events", allocs, len(evs))
	}
}

// BenchmarkTrain trains one Bingo over a fixed 16,384-event slice of the
// lockstep stream, on which it replays footprints, cycled through.
func BenchmarkTrain(b *testing.B) {
	evs := lockstepEvents(1 << 14)
	p := New()
	out := make([]prefetch.Request, 0, regionLines)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = p.Train(evs[i%len(evs)], out[:0])
	}
	benchOut = out
}

// benchOut keeps the benchmark's result live.
var benchOut []prefetch.Request
