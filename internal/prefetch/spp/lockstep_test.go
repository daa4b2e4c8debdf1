package spp

import (
	"fmt"
	"math/rand"
	"testing"

	"streamline/internal/mem"
	"streamline/internal/prefetch"
)

// refPrefetcher is SPP-PPF as it stood with a map pattern table, a scan of
// the whole issued ring on every Train and a perceptron of heap slices: the
// reference the table-backed Prefetcher must match decision for decision.
// It also counts the cases the lockstep stream has to reach.
type refPrefetcher struct {
	trackers [numTrackers]pageTracker
	patterns map[uint16]*refPatternEntry
	filter   *refPerceptron
	issued   []refIssuedRecord
	issuedN  int
	clock    uint64

	halvings    int // pattern entries whose total passed 64
	maxConfirms int // most ring records one Train confirmed
	remembered  int // prefetches written to the ring
}

type refPatternEntry struct {
	delta int64
	count int
	total int
}

type refPerceptron struct {
	wPC    []int8
	wSig   []int8
	wDelta []int8
}

type refIssuedRecord struct {
	line  mem.Line
	pc    mem.PC
	sig   uint16
	delta int64
	valid bool
}

func newRef() *refPrefetcher {
	return &refPrefetcher{
		patterns: make(map[uint16]*refPatternEntry),
		filter: &refPerceptron{
			wPC:    make([]int8, 1<<10),
			wSig:   make([]int8, 1<<10),
			wDelta: make([]int8, 1<<8),
		},
		issued: make([]refIssuedRecord, 256),
	}
}

func (pf *refPerceptron) features(pc mem.PC, sig uint16, delta int64) (int, int, int) {
	return int(mem.HashPC(pc, 10)),
		int(sig) & 1023,
		int(uint64(delta)) & 255
}

func (pf *refPerceptron) score(pc mem.PC, sig uint16, delta int64) int {
	a, b, c := pf.features(pc, sig, delta)
	return int(pf.wPC[a]) + int(pf.wSig[b]) + int(pf.wDelta[c])
}

func (pf *refPerceptron) train(pc mem.PC, sig uint16, delta int64, useful bool) {
	a, b, c := pf.features(pc, sig, delta)
	upd := func(w *int8, d int8) {
		n := *w + d
		if n > 31 {
			n = 31
		}
		if n < -32 {
			n = -32
		}
		*w = n
	}
	d := int8(1)
	if !useful {
		d = -1
	}
	upd(&pf.wPC[a], d)
	upd(&pf.wSig[b], d)
	upd(&pf.wDelta[c], d)
}

func (p *refPrefetcher) Train(ev prefetch.Event, out []prefetch.Request) []prefetch.Request {
	line := ev.Line()
	page := line / pageLines
	offset := int(line % pageLines)
	p.clock++

	confirms := 0
	for i := range p.issued {
		r := &p.issued[i]
		if r.valid && r.line == line {
			p.filter.train(r.pc, r.sig, r.delta, true)
			r.valid = false
			confirms++
		}
	}
	p.maxConfirms = max(p.maxConfirms, confirms)

	tr := p.findTracker(page)
	if !tr.filled {
		tr.last = offset
		tr.filled = true
		tr.lru = p.clock
		return out
	}
	delta := int64(offset - tr.last)
	if delta == 0 {
		return out
	}

	pe, ok := p.patterns[tr.sig]
	if !ok {
		pe = &refPatternEntry{}
		p.patterns[tr.sig] = pe
	}
	pe.total++
	if pe.delta == delta {
		pe.count++
	} else if pe.count > 0 {
		pe.count--
	} else {
		pe.delta = delta
		pe.count = 1
	}
	if pe.total > 64 {
		pe.total /= 2
		pe.count = (pe.count + 1) / 2
		p.halvings++
	}

	tr.sig = sigNext(tr.sig, delta)
	tr.last = offset
	tr.lru = p.clock

	conf := 100
	sig := tr.sig
	cur := int64(offset)
	for depth := 0; depth < lookaheadDepth; depth++ {
		pe, ok := p.patterns[sig]
		if !ok || pe.total < 4 || pe.delta == 0 || pe.count*2 <= pe.total {
			break
		}
		conf = conf * pe.count * 100 / pe.total / 100
		if conf < pathThreshold {
			break
		}
		cur += pe.delta
		if cur < 0 || cur >= pageLines {
			break
		}
		target := page*pageLines + mem.Line(cur)
		if p.filter.score(ev.PC, sig, pe.delta) >= filterThreshold {
			out = append(out, prefetch.Request{Addr: mem.AddrOf(target)})
			p.remember(target, ev.PC, sig, pe.delta)
		}
		sig = sigNext(sig, pe.delta)
	}
	return out
}

func (p *refPrefetcher) remember(line mem.Line, pc mem.PC, sig uint16, delta int64) {
	r := &p.issued[p.issuedN]
	if r.valid {
		p.filter.train(r.pc, r.sig, r.delta, false)
	}
	*r = refIssuedRecord{line: line, pc: pc, sig: sig, delta: delta, valid: true}
	p.issuedN = (p.issuedN + 1) % len(p.issued)
	p.remembered++
}

func (p *refPrefetcher) findTracker(page mem.Line) *pageTracker {
	victim := 0
	for i := range p.trackers {
		t := &p.trackers[i]
		if t.valid && t.page == page {
			return t
		}
		if !t.valid {
			victim = i
			continue
		}
		if p.trackers[victim].valid && t.lru < p.trackers[victim].lru {
			victim = i
		}
	}
	p.trackers[victim] = pageTracker{valid: true, page: page}
	return &p.trackers[victim]
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
			pc, line = mem.PC(0x500000+rng.Intn(4)*8), mem.Line(1<<24+rng.Intn(40*pageLines))
		default:
			pc, line = mem.PC(0x600000), mem.Line(rng.Int63n(1<<30))
		}
		evs = append(evs, prefetch.Event{Now: uint64(i), PC: pc, Addr: mem.AddrOf(line)})
	}
	return evs
}

// checkIndex checks that the ring's line index links every valid record
// exactly once, from the bucket of its line, and links nothing else. A
// slot met twice fails the check, so a cyclic chain cannot hang it.
func checkIndex(p *Prefetcher) error {
	var seen [issuedSlots]bool
	linked, valid := 0, 0
	for b, link := range p.bucket {
		for ; link != 0; link = p.next[link-1] {
			s := link - 1
			r := p.issued[s]
			switch {
			case seen[s]:
				return fmt.Errorf("bucket %d reaches ring slot %d a second time", b, s)
			case !r.valid:
				return fmt.Errorf("bucket %d links invalid ring slot %d", b, s)
			case mem.HashLine(r.line, indexBits) != uint64(b):
				return fmt.Errorf("bucket %d links ring slot %d of another bucket's line", b, s)
			}
			seen[s] = true
			linked++
		}
	}
	for _, r := range p.issued {
		if r.valid {
			valid++
		}
	}
	if linked != valid {
		return fmt.Errorf("index links %d ring slots, %d are valid", linked, valid)
	}
	return nil
}

// TestLockstepWithReference drives the table-backed SPP-PPF and the map and
// whole-ring reference with the same events and compares, after every call,
// the requests, the perceptron weights, the issued ring and the trackers,
// and checks the ring's line index; at the end it compares the whole
// pattern table.
func TestLockstepWithReference(t *testing.T) {
	p, ref := New(), newRef()
	var got, want []prefetch.Request
	for i, ev := range lockstepEvents(200_000) {
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
		if p.filter.wPC != [1 << 10]int8(ref.filter.wPC) ||
			p.filter.wSig != [1 << 10]int8(ref.filter.wSig) ||
			p.filter.wDelta != [1 << 8]int8(ref.filter.wDelta) {
			t.Fatalf("event %d: perceptron weights differ from the reference", i)
		}
		for s, r := range ref.issued {
			q := p.issued[s]
			if q.valid != r.valid || q.line != r.line || q.pc != r.pc || q.sig != r.sig || int64(q.delta) != r.delta {
				t.Fatalf("event %d: ring slot %d holds %+v, reference %+v", i, s, q, r)
			}
		}
		if p.trackers != ref.trackers {
			t.Fatalf("event %d: page trackers differ from the reference", i)
		}
		if err := checkIndex(p); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	for sig := range p.patterns {
		pe, r := p.patterns[sig], ref.patterns[uint16(sig)]
		if r == nil {
			t.Fatalf("signature %#x never trained", sig)
		}
		if int64(pe.delta) != r.delta || int(pe.count) != r.count || int(pe.total) != r.total {
			t.Fatalf("signature %#x: %+v, reference %+v", sig, pe, *r)
		}
	}
	t.Logf("%d signatures, %d halvings, up to %d records of one line confirmed at once, %d ring writes",
		len(ref.patterns), ref.halvings, ref.maxConfirms, ref.remembered)
	if ref.halvings == 0 || ref.maxConfirms < 2 || ref.remembered < 5*issuedSlots {
		t.Fatal("the stream must halve a total, confirm one line twice and lap the ring five times")
	}
}

// TestTrainAllocatesNothing: a constructed SPP-PPF trains new signatures,
// confirms prefetches and overwrites its ring without allocating.
func TestTrainAllocatesNothing(t *testing.T) {
	evs := lockstepEvents(20_000)
	ps := []*Prefetcher{New(), New(), New()}
	out := make([]prefetch.Request, 0, lookaheadDepth)
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
