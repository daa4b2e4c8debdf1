// Package spp implements the Signature Path Prefetcher with Perceptron
// Prefetch Filtering (SPP-PPF, Bhatia et al., ISCA 2019): per-page delta
// signatures index a pattern table whose confident deltas are followed with
// multiplicative path confidence, and a perceptron filter accepts or rejects
// each candidate using PC/signature/delta features. SPP-PPF is one of
// Figure 11c's L2 regular-prefetcher baselines.
package spp

import (
	"streamline/internal/mem"
	"streamline/internal/prefetch"
)

// The published design's intent.
const (
	// pageLines is the spatial scope of signatures (64: 4KB pages).
	pageLines = 64
	// numTrackers is the number of concurrently tracked pages.
	numTrackers = 64
	// lookaheadDepth bounds the signature chain walk.
	lookaheadDepth = 4
	// pathThreshold is the minimum multiplicative path confidence
	// (percent) to continue prefetching.
	pathThreshold = 25
	// filterThreshold is the perceptron acceptance threshold.
	filterThreshold = 0
)

type pageTracker struct {
	valid  bool
	page   mem.Line
	last   int // last offset
	sig    uint16
	lru    uint64
	filled bool
}

// patternEntry is one signature's slot in the dense pattern table. The zero
// entry is a signature never trained: its total of 0 stops a lookahead walk,
// and its first training sets delta with count 1. Deltas lie in [-63, 63]
// and are never 0 once set (a repeated offset trains nothing), and
// count <= total <= 65 because total halves once it passes 64.
type patternEntry struct {
	delta int8
	count uint8
	total uint8
}

// perceptron is the PPF: small weight tables over hashed features.
type perceptron struct {
	wPC    [1 << 10]int8
	wSig   [1 << 10]int8
	wDelta [1 << 8]int8
}

func (pf *perceptron) features(pc mem.PC, sig uint16, delta int64) (int, int, int) {
	return int(mem.HashPC(pc, 10)),
		int(sig) & 1023,
		int(uint64(delta)) & 255
}

func (pf *perceptron) score(pc mem.PC, sig uint16, delta int64) int {
	a, b, c := pf.features(pc, sig, delta)
	return int(pf.wPC[a]) + int(pf.wSig[b]) + int(pf.wDelta[c])
}

func (pf *perceptron) train(pc mem.PC, sig uint16, delta int64, useful bool) {
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

// issuedRecord remembers a recent prefetch decision for filter training.
type issuedRecord struct {
	line  mem.Line
	pc    mem.PC
	sig   uint16
	delta int8
	valid bool
}

// The issued-prefetch ring has issuedSlots records; its line index has
// 1<<indexBits buckets.
const (
	issuedSlots = 256
	indexBits   = 10
)

// Prefetcher is the SPP-PPF prefetcher. Every table is an array inside it,
// so New is its only allocation.
type Prefetcher struct {
	trackers [numTrackers]pageTracker
	patterns [1 << 12]patternEntry // indexed by signature
	filter   perceptron
	issued   [issuedSlots]issuedRecord
	issuedN  int
	// The line index over issued: bucket heads a chain of the valid
	// records whose lines hash to it, continued through next; both hold
	// slot+1, with 0 ending the chain.
	bucket [1 << indexBits]uint16
	next   [issuedSlots]uint16
	clock  uint64
}

// New returns an SPP-PPF instance.
func New() *Prefetcher { return &Prefetcher{} }

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "spp-ppf" }

func sigNext(sig uint16, delta int64) uint16 {
	return (sig<<3 ^ uint16(uint64(delta)&0x3f)) & 0xfff
}

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(ev prefetch.Event, out []prefetch.Request) []prefetch.Request {
	line := ev.Line()
	page := line / pageLines
	offset := int(line % pageLines)
	p.clock++

	// Filter training: a demand access to a line we recently prefetched
	// confirms the decision, once for each record of it in the ring. The
	// updates are all +1, so the order they are visited in does not matter.
	for link := &p.bucket[mem.HashLine(line, indexBits)]; *link != 0; {
		s := *link - 1
		r := &p.issued[s]
		if r.line != line {
			link = &p.next[s]
			continue
		}
		p.filter.train(r.pc, r.sig, int64(r.delta), true)
		r.valid = false
		*link = p.next[s]
	}

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

	// Train the pattern table for the old signature.
	pe := &p.patterns[tr.sig]
	pe.total++
	if int64(pe.delta) == delta {
		pe.count++
	} else if pe.count > 0 {
		pe.count--
	} else {
		pe.delta = int8(delta)
		pe.count = 1
	}
	if pe.total > 64 {
		pe.total /= 2
		pe.count = (pe.count + 1) / 2
	}

	tr.sig = sigNext(tr.sig, delta)
	tr.last = offset
	tr.lru = p.clock

	// Lookahead walk with multiplicative path confidence.
	conf := 100
	sig := tr.sig
	cur := int64(offset)
	for depth := 0; depth < lookaheadDepth; depth++ {
		pe := p.patterns[sig]
		// Require minimum support and a majority delta before trusting a
		// signature; fresh or churning signatures (conf trivially high)
		// would otherwise spray prefetches on random access patterns.
		count, total, d := int(pe.count), int(pe.total), int64(pe.delta)
		if total < 4 || count*2 <= total {
			break
		}
		conf = conf * count * 100 / total / 100
		if conf < pathThreshold {
			break
		}
		cur += d
		if cur < 0 || cur >= pageLines {
			break // SPP stops at page boundaries
		}
		target := page*pageLines + mem.Line(cur)
		if p.filter.score(ev.PC, sig, d) >= filterThreshold {
			out = append(out, prefetch.Request{Addr: mem.AddrOf(target)})
			p.remember(target, ev.PC, sig, pe.delta)
		}
		sig = sigNext(sig, d)
	}
	return out
}

// remember records an issued prefetch; stale slots train the filter down.
func (p *Prefetcher) remember(line mem.Line, pc mem.PC, sig uint16, delta int8) {
	s := p.issuedN
	r := &p.issued[s]
	if r.valid {
		// Evicted unconfirmed: the prefetch was (probably) useless.
		p.filter.train(r.pc, r.sig, int64(r.delta), false)
		link := &p.bucket[mem.HashLine(r.line, indexBits)]
		for int(*link) != s+1 {
			link = &p.next[*link-1]
		}
		*link = p.next[s]
	}
	*r = issuedRecord{line: line, pc: pc, sig: sig, delta: delta, valid: true}
	head := &p.bucket[mem.HashLine(line, indexBits)]
	p.next[s], *head = *head, uint16(s+1)
	p.issuedN = (s + 1) % issuedSlots
}

func (p *Prefetcher) findTracker(page mem.Line) *pageTracker {
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
