package spp

import (
	"fmt"

	"streamline/internal/mem"
)

// Tracker is a page tracker as plain values, for the external lockstep
// test: the page, its last offset, its signature and the call that last
// touched it.
type Tracker struct {
	Page      mem.Line
	Last, Sig int
	Touched   uint64
}

// Tracker returns page tracker i, false when it tracks no page.
func (p *Prefetcher) Tracker(i int) (Tracker, bool) {
	t := p.trackers[i]
	return Tracker{t.page, t.last, int(t.sig), t.lru}, t.valid
}

// Pattern returns signature s's pattern entry.
func (p *Prefetcher) Pattern(s int) (delta, count, total int) {
	e := p.patterns[s]
	return int(e.delta), int(e.count), int(e.total)
}

// Weights returns the perceptron's weights by PC, by signature and by delta.
func (p *Prefetcher) Weights() [3][]int8 {
	return [3][]int8{p.filter.wPC[:], p.filter.wSig[:], p.filter.wDelta[:]}
}

// Record is an issued-ring record as plain values.
type Record struct {
	Line       mem.Line
	PC         mem.PC
	Sig, Delta int
}

// Record returns ring slot s, false when it holds no valid record.
func (p *Prefetcher) Record(s int) (Record, bool) {
	r := p.issued[s]
	return Record{r.line, r.pc, int(r.sig), int(r.delta)}, r.valid
}

// CheckIndex checks that the ring's line index links every valid record
// exactly once, from the bucket of its line, and links nothing else. A
// slot met twice fails the check, so a cyclic chain cannot hang it.
func (p *Prefetcher) CheckIndex() error {
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
