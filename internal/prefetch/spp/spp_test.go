package spp

import (
	"testing"

	"streamline/internal/mem"
	"streamline/internal/prefetch"
)

func drive(p *Prefetcher, pc mem.PC, lines []mem.Line) []prefetch.Request {
	var all, buf []prefetch.Request
	for i, l := range lines {
		buf = p.Train(prefetch.Event{Now: uint64(i), PC: pc, Addr: mem.AddrOf(l)}, buf[:0])
		all = append(all, buf...)
	}
	return all
}

func TestUnitStrideWithinPages(t *testing.T) {
	p := New()
	var lines []mem.Line
	for i := 0; i < 1000; i++ {
		lines = append(lines, mem.Line(i))
	}
	reqs := drive(p, 1, lines)
	if len(reqs) == 0 {
		t.Fatal("no prefetches on unit stride")
	}
	future := map[mem.Line]bool{}
	for _, l := range lines {
		future[l] = true
	}
	hit := 0
	for _, r := range reqs {
		if future[mem.LineOf(r.Addr)] {
			hit++
		}
	}
	if float64(hit)/float64(len(reqs)) < 0.8 {
		t.Errorf("only %d/%d prefetches on-stream", hit, len(reqs))
	}
}

func TestStopsAtPageBoundaries(t *testing.T) {
	p := New()
	var lines []mem.Line
	for i := 0; i < 640; i++ {
		lines = append(lines, mem.Line(i))
	}
	reqs := drive(p, 1, lines)
	for _, r := range reqs {
		// A prefetch must stay within the page of some trained access.
		if mem.LineOf(r.Addr) >= 640+64 {
			t.Errorf("prefetch %d beyond trained pages", mem.LineOf(r.Addr))
		}
	}
}

func TestLowConfidencePatternsSuppressed(t *testing.T) {
	p := New()
	x := uint64(11)
	var lines []mem.Line
	for i := 0; i < 800; i++ {
		x = x*6364136223846793005 + 1
		// Use high LCG bits: the low bits are periodic and would form a
		// genuinely learnable pattern.
		lines = append(lines, mem.Line((x>>33)%(64*8))) // random within 8 pages
	}
	reqs := drive(p, 1, lines)
	if len(reqs) > 200 {
		t.Errorf("%d prefetches on random in-page accesses", len(reqs))
	}
}

func TestPerceptronLearnsFromOutcomes(t *testing.T) {
	p := New()
	// Issue and confirm a stream: weights should become nonnegative for
	// the stream's features and stay usable.
	var lines []mem.Line
	for i := 0; i < 2000; i++ {
		lines = append(lines, mem.Line(i%2048))
	}
	reqs := drive(p, 1, lines)
	if len(reqs) == 0 {
		t.Fatal("filter rejected a perfectly predictable stream")
	}
}
