package spp

import (
	"fmt"
	"math/rand"

	"streamline/internal/mem"
	"streamline/internal/prefetch"
)

// Ref is SPP-PPF as it stood with a map pattern table, a scan of the whole
// issued ring on every Train and a perceptron of heap slices: the reference
// the table-backed Prefetcher must match decision for decision. It also
// counts, for the external lockstep test, the cases the lockstep stream has
// to reach.
type Ref struct {
	trackers [numTrackers]pageTracker
	patterns map[uint16]*refPatternEntry
	filter   *refPerceptron
	issued   []refIssuedRecord
	issuedN  int
	clock    uint64

	Signatures  int // signatures trained
	Halvings    int // pattern entries whose total passed 64
	MaxConfirms int // most ring records one Train confirmed
	Remembered  int // prefetches written to the ring
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

// NewRef returns an empty reference.
func NewRef() *Ref {
	return &Ref{
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

func (p *Ref) Train(ev prefetch.Event, out []prefetch.Request) []prefetch.Request {
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
	p.MaxConfirms = max(p.MaxConfirms, confirms)

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
		p.Signatures++
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
		p.Halvings++
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

func (p *Ref) remember(line mem.Line, pc mem.PC, sig uint16, delta int64) {
	r := &p.issued[p.issuedN]
	if r.valid {
		p.filter.train(r.pc, r.sig, r.delta, false)
	}
	*r = refIssuedRecord{line: line, pc: pc, sig: sig, delta: delta, valid: true}
	p.issuedN = (p.issuedN + 1) % len(p.issued)
	p.Remembered++
}

func (p *Ref) findTracker(page mem.Line) *pageTracker {
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

// LockstepEvents returns n training events mixing eight strided streams
// under their own PCs (positive and negative strides that cross pages),
// random lines within a few dozen pages (which reach every signature) and
// random lines anywhere (which churn the trackers).
func LockstepEvents(n int) []prefetch.Event {
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

// SameState compares the perceptron weights, the issued ring and the
// trackers with the reference's, and checks the ring's line index.
func SameState(p *Prefetcher, r *Ref) error {
	if p.filter.wPC != [1 << 10]int8(r.filter.wPC) ||
		p.filter.wSig != [1 << 10]int8(r.filter.wSig) ||
		p.filter.wDelta != [1 << 8]int8(r.filter.wDelta) {
		return fmt.Errorf("perceptron weights differ from the reference")
	}
	for s, ri := range r.issued {
		if q := p.issued[s]; q.valid != ri.valid || q.line != ri.line || q.pc != ri.pc || q.sig != ri.sig || int64(q.delta) != ri.delta {
			return fmt.Errorf("ring slot %d holds %+v, reference %+v", s, q, ri)
		}
	}
	if p.trackers != r.trackers {
		return fmt.Errorf("page trackers differ from the reference")
	}
	return checkIndex(p)
}

// SamePatterns compares the whole pattern table with the reference's: a
// signature the reference never trained holds the zero entry.
func SamePatterns(p *Prefetcher, r *Ref) error {
	for sig, pe := range p.patterns {
		var want refPatternEntry
		if re := r.patterns[uint16(sig)]; re != nil {
			want = *re
		}
		if int64(pe.delta) != want.delta || int(pe.count) != want.count || int(pe.total) != want.total {
			return fmt.Errorf("signature %#x: %+v, reference %+v", sig, pe, want)
		}
	}
	return nil
}
