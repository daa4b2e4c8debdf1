package spp_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"streamline/internal/mem"
	"streamline/internal/prefetch"
	"streamline/internal/prefetch/ptest"
	"streamline/internal/prefetch/spp"
)

// refSPP is SPP-PPF written from its DESIGN.md row, in the external test
// package, so it shares nothing with the engine but mem and prefetch: up to
// 64 tracked pages, a map pattern table by signature, the perceptron's three
// weight tables, and a 256-record issued ring scanned whole on every call.
// It also counts the cases the lockstep stream has to reach.
type refSPP struct {
	calls    uint64
	pages    map[mem.Line]*refPage // by page
	patterns map[int]*refPattern   // by signature
	weights  [3][]int8             // by PC, signature and delta
	ring     []refRecord
	next     int // the ring slot written next

	signatures, halvings, maxConfirms, remembered int
}

type refPage struct {
	last, sig int
	touched   uint64 // the call that last touched it
}

type refPattern struct{ delta, count, total int }

type refRecord struct {
	line       mem.Line
	pc         mem.PC
	sig, delta int
	valid      bool
}

func newRef() *refSPP {
	return &refSPP{
		pages: map[mem.Line]*refPage{}, patterns: map[int]*refPattern{},
		weights: [3][]int8{make([]int8, 1<<10), make([]int8, 1<<10), make([]int8, 1<<8)},
		ring:    make([]refRecord, 256),
	}
}

func nextSig(sig, d int) int { return (sig<<3 ^ int(uint64(d)&0x3f)) & 0xfff }

// features are the weight indices of a PC, a signature and a delta.
func features(pc mem.PC, sig, d int) [3]int {
	return [3]int{int(mem.HashPC(pc, 10)), sig & 1023, int(uint64(d) & 255)}
}

// train moves the three weights one step toward useful or useless,
// saturating at -32 and 31.
func (r *refSPP) train(pc mem.PC, sig, d int, useful bool) {
	step := -1
	if useful {
		step = 1
	}
	for t, i := range features(pc, sig, d) {
		r.weights[t][i] = int8(min(max(int(r.weights[t][i])+step, -32), 31))
	}
}

// Train: every valid ring record of the line confirms; an untracked page
// is tracked from this offset on, the least recently touched of 64 giving
// way. A new offset of a tracked page trains its signature's pattern with
// the delta and walks up to 4 steps ahead while the path stays confident
// and in the page, issuing the steps the filter accepts.
func (r *refSPP) Train(ev prefetch.Event, out []prefetch.Request) []prefetch.Request {
	r.calls++
	line := mem.LineOf(ev.Addr)
	page, offset := line/64, int(line%64)
	confirms := 0
	for i, rec := range r.ring {
		if rec.valid && rec.line == line {
			r.train(rec.pc, rec.sig, rec.delta, true)
			r.ring[i].valid = false
			confirms++
		}
	}
	r.maxConfirms = max(r.maxConfirms, confirms)
	pg := r.pages[page]
	if pg == nil {
		if len(r.pages) == 64 {
			var lru mem.Line
			for g, o := range r.pages {
				if r.pages[lru] == nil || o.touched < r.pages[lru].touched {
					lru = g
				}
			}
			delete(r.pages, lru)
		}
		r.pages[page] = &refPage{last: offset, touched: r.calls}
		return out
	}
	if offset == pg.last {
		return out
	}
	d := offset - pg.last
	pt := r.patterns[pg.sig]
	if pt == nil {
		pt = &refPattern{}
		r.patterns[pg.sig] = pt
		r.signatures++
	}
	pt.total++
	switch {
	case d == pt.delta:
		pt.count++
	case pt.count > 0:
		pt.count--
	default:
		pt.delta, pt.count = d, 1
	}
	if pt.total > 64 {
		pt.total, pt.count = pt.total/2, (pt.count+1)/2
		r.halvings++
	}
	pg.sig, pg.last, pg.touched = nextSig(pg.sig, d), offset, r.calls

	conf, sig, at := 100, pg.sig, offset
	for range 4 {
		pt := r.patterns[sig]
		if pt == nil || pt.total < 4 || 2*pt.count <= pt.total {
			break
		}
		if conf = conf * pt.count * 100 / pt.total / 100; conf < 25 {
			break
		}
		if at += pt.delta; at < 0 || at >= 64 {
			break
		}
		score := 0
		for t, i := range features(ev.PC, sig, pt.delta) {
			score += int(r.weights[t][i])
		}
		if score >= 0 {
			target := page*64 + mem.Line(at)
			out = append(out, prefetch.Request{Addr: mem.AddrOf(target)})
			if old := r.ring[r.next]; old.valid {
				r.train(old.pc, old.sig, old.delta, false)
			}
			r.ring[r.next] = refRecord{target, ev.PC, sig, pt.delta, true}
			r.next = (r.next + 1) % 256
			r.remembered++
		}
		sig = nextSig(sig, pt.delta)
	}
	return out
}

// lockstepEvents returns n training events mixing eight strided streams
// under their own PCs (positive and negative strides that cross pages),
// random lines within a few dozen pages (which reach every signature) and
// random lines anywhere (which churn the trackers).
func lockstepEvents(n int) []prefetch.Event {
	rng := rand.New(rand.NewSource(49))
	strides := []int64{1, 1, 2, 3, -1, -2, 5, 7}
	pos := make([]int64, len(strides))
	for i := range pos {
		pos[i] = int64(1<<20 + i<<14)
	}
	evs := make([]prefetch.Event, 0, n)
	for i := 0; i < n; i++ {
		var pc mem.PC
		var line mem.Line
		switch k := rng.Intn(20); {
		case k < 9:
			s := rng.Intn(len(strides))
			pos[s] += strides[s]
			pc, line = mem.PC(0x400000+s*8), mem.Line(pos[s])
		case k < 18:
			pc, line = mem.PC(0x500000+rng.Intn(4)*8), mem.Line(1<<24+rng.Intn(40*64))
		default:
			pc, line = mem.PC(0x600000), mem.Line(rng.Int63n(1<<30))
		}
		evs = append(evs, prefetch.Event{Now: uint64(i), PC: pc, Addr: mem.AddrOf(line)})
	}
	return evs
}

// TestLockstepWithReference runs SPP-PPF in lockstep with the reference
// written from its description, comparing the perceptron weights, the
// issued ring and the trackers, and checking the ring's line index, after
// every call, and the whole pattern table every 1,024 calls and at the end.
func TestLockstepWithReference(t *testing.T) {
	p, ref := spp.New(), newRef()
	ptest.Lockstep{
		Engine: p.Train, Ref: ref.Train, Events: lockstepEvents(200_000),
		Step: func(int) error {
			if w := p.Weights(); !slices.Equal(w[0], ref.weights[0]) || !slices.Equal(w[1], ref.weights[1]) || !slices.Equal(w[2], ref.weights[2]) {
				return fmt.Errorf("perceptron weights differ from the reference")
			}
			for s, want := range ref.ring {
				got, ok := p.Record(s)
				if ok != want.valid || ok && got != (spp.Record{want.line, want.pc, want.sig, want.delta}) {
					return fmt.Errorf("ring slot %d holds %+v (valid %v), reference %+v", s, got, ok, want)
				}
			}
			n := 0
			for i := range 64 {
				got, ok := p.Tracker(i)
				if !ok {
					continue
				}
				n++
				w := ref.pages[got.Page]
				if w == nil || got != (spp.Tracker{got.Page, w.last, w.sig, w.touched}) {
					return fmt.Errorf("tracker %d is %+v, reference %+v", i, got, w)
				}
			}
			if n != len(ref.pages) {
				return fmt.Errorf("%d pages tracked, reference %d", n, len(ref.pages))
			}
			return p.CheckIndex()
		},
		Tables: func(int) error {
			for s := range 1 << 12 {
				var want refPattern
				if pt := ref.patterns[s]; pt != nil {
					want = *pt
				}
				if d, c, n := p.Pattern(s); (refPattern{d, c, n}) != want {
					return fmt.Errorf("signature %#x holds {%d %d %d}, reference %+v", s, d, c, n, want)
				}
			}
			return nil
		},
		Needs: []ptest.Need{
			ptest.AtLeast(1<<12, "signatures trained", &ref.signatures),
			ptest.AtLeast(1, "pattern totals halved", &ref.halvings),
			ptest.AtLeast(2, "most ring records one line confirmed at once", &ref.maxConfirms),
			ptest.AtLeast(5*256, "ring writes (five laps)", &ref.remembered),
		},
	}.Run(t)
}

// TestTrainAllocatesNothing: a constructed SPP-PPF trains new signatures,
// confirms prefetches and overwrites its ring without allocating.
func TestTrainAllocatesNothing(t *testing.T) {
	ptest.TrainAllocatesNothing(t, factory, lockstepEvents(20_000), false)
}

// BenchmarkTrain trains one SPP-PPF over a fixed 16,384-event slice of the
// lockstep stream, on which it confirms and issues, cycled through.
func BenchmarkTrain(b *testing.B) { ptest.BenchmarkTrain(b, spp.New(), lockstepEvents(1<<14)) }
