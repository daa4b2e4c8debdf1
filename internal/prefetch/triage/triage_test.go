package triage

import (
	"testing"
	"unsafe"

	"streamline/internal/mem"
	"streamline/internal/meta"
	"streamline/internal/prefetch"
)

func testBridge() *meta.NullBridge { return &meta.NullBridge{Sets: 2048, Ways: 16, Latency: 20} }

func drive(p *Prefetcher, pc mem.PC, lines []mem.Line) []prefetch.Request {
	var all, buf []prefetch.Request
	for i, l := range lines {
		buf = p.Train(prefetch.Event{Now: uint64(i), PC: pc, Addr: mem.AddrOf(l)}, buf[:0])
		all = append(all, buf...)
	}
	return all
}

func lap(start, n, stride int) []mem.Line {
	out := make([]mem.Line, n)
	for i := range out {
		out[i] = mem.Line(start + i*stride)
	}
	return out
}

func TestLearnsRepeatingSequence(t *testing.T) {
	p := New(DefaultConfig(), testBridge())
	l := lap(1000, 128, 7)
	drive(p, 1, l)
	reqs := drive(p, 1, l)
	if len(reqs) == 0 {
		t.Fatal("no prefetches on second lap")
	}
	inStream := map[mem.Line]bool{}
	for _, x := range l {
		inStream[x] = true
	}
	good := 0
	for _, r := range reqs {
		if inStream[mem.LineOf(r.Addr)] {
			good++
		}
	}
	if float64(good)/float64(len(reqs)) < 0.8 {
		t.Errorf("only %d/%d prefetches on-stream", good, len(reqs))
	}
}

func TestIdealVariantUnlimited(t *testing.T) {
	p := NewIdeal()
	if p.Name() != "triage-ideal" {
		t.Errorf("name = %q", p.Name())
	}
	// A sequence much larger than any realistic partition still gets full
	// coverage from the ideal store.
	l := lap(1, 50_000, 3)
	drive(p, 1, l)
	reqs := drive(p, 1, l)
	if len(reqs) < len(l) {
		t.Errorf("ideal Triage issued %d prefetches for %d accesses", len(reqs), len(l))
	}
	if p.Store() != nil {
		t.Error("ideal variant should have no LLC store")
	}
}

func TestLUTRecyclingCorruptsOldTargets(t *testing.T) {
	// Fill the LUT far beyond capacity: early targets' regions get
	// recycled, so decoding can return wrong-region addresses. The
	// prefetcher must survive and the decode must stay deterministic.
	l := newLUT(8)
	firstIdx := l.encode(0 << 11)
	for r := 1; r < 100; r++ {
		l.encode(mem.Line(r) << 11)
	}
	got := l.decode(firstIdx, 5)
	if got>>11 == 0 {
		t.Error("expected the recycled slot to point to a different region")
	}
}

func TestLUTRoundTripWhileResident(t *testing.T) {
	l := newLUT(1024)
	target := mem.Line(0xabcd<<11 | 0x123)
	idx := l.encode(target)
	if got := l.decode(idx, target); got != target {
		t.Errorf("decode = %#x, want %#x", got, target)
	}
}

func TestMetaStatsExposed(t *testing.T) {
	p := New(DefaultConfig(), testBridge())
	drive(p, 1, lap(1, 100, 2))
	if p.MetaStats().Writes == 0 {
		t.Error("no metadata writes recorded")
	}
	var _ prefetch.MetaReporter = p
}

// TestTUEntrySize guards the training unit's host budget: each entry holds
// a pointer to its issued-line window, not the 648 B window itself.
func TestTUEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(tuEntry{}); got > 32 {
		t.Errorf("tuEntry is %d B, budget 32", got)
	}
}
