package core

import (
	"testing"
	"unsafe"

	"streamline/internal/mem"
	"streamline/internal/prefetch"
)

// seqLines yields an arithmetic line sequence (distinct, non-sequential).
func seqLines(start, n, stride int) []mem.Line {
	out := make([]mem.Line, n)
	for i := range out {
		out[i] = mem.Line(start + i*stride)
	}
	return out
}

func TestCursorRunsAheadOfDemand(t *testing.T) {
	p := New(DefaultOptions(), testBridge())
	lap := seqLines(1000, 512, 9)
	feed(p, 1, lap) // train
	// Second lap: after warm-up accesses, the furthest issued line should
	// sit well ahead of the current demand position.
	var buf []prefetch.Request
	maxIssued := mem.Line(0)
	for i, l := range lap[:128] {
		buf = p.Train(prefetch.Event{Now: uint64(i * 10), PC: 1, Addr: mem.AddrOf(l)}, buf[:0])
		for _, r := range buf {
			if mem.LineOf(r.Addr) > maxIssued {
				maxIssued = mem.LineOf(r.Addr)
			}
		}
	}
	demandPos := lap[127]
	leadLines := (int(maxIssued) - int(demandPos)) / 9
	if leadLines < 8 {
		t.Errorf("cursor lead = %d stream positions, want >= 8", leadLines)
	}
	if leadLines > maxLead+8 {
		t.Errorf("cursor lead = %d exceeds the %d bound", leadLines, maxLead)
	}
}

func TestLeadBoundRespected(t *testing.T) {
	p := New(DefaultOptions(), testBridge())
	lap := seqLines(5000, 600, 3)
	feed(p, 1, lap)
	tu := p.tuFor(1)
	if tu.lead > maxLead {
		t.Errorf("lead = %d exceeds maxLead %d", tu.lead, maxLead)
	}
	// Replay and check the invariant continuously.
	var buf []prefetch.Request
	for i, l := range lap {
		buf = p.Train(prefetch.Event{Now: uint64(i * 10), PC: 1, Addr: mem.AddrOf(l)}, buf[:0])
		if tu := p.tuFor(1); tu.lead > maxLead {
			t.Fatalf("lead %d exceeded bound at access %d", tu.lead, i)
		}
	}
}

func TestCursorReanchorsOffStream(t *testing.T) {
	p := New(DefaultOptions(), testBridge())
	lapA := seqLines(1000, 256, 7)
	lapB := seqLines(100000, 256, 11)
	feed(p, 1, lapA)
	feed(p, 1, lapA)
	// Jump to an unrelated region: the cursor must not keep issuing lapA
	// lines for long.
	var buf []prefetch.Request
	staleIssues := 0
	for i, l := range lapB {
		buf = p.Train(prefetch.Event{Now: uint64(i * 10), PC: 1, Addr: mem.AddrOf(l)}, buf[:0])
		for _, r := range buf {
			if mem.LineOf(r.Addr) < 10000 { // a lapA address
				staleIssues++
			}
		}
	}
	if staleIssues > maxLead {
		t.Errorf("%d stale lapA prefetches after the stream moved", staleIssues)
	}
}

func TestIssuedRingDeduplicates(t *testing.T) {
	p := New(DefaultOptions(), testBridge())
	lap := seqLines(2000, 400, 5)
	feed(p, 1, lap)
	reqs := feed(p, 1, lap)
	counts := map[mem.Addr]int{}
	for _, r := range reqs {
		counts[r.Addr]++
	}
	for a, n := range counts {
		if n > 3 {
			t.Errorf("address %#x issued %d times within one lap", a, n)
		}
	}
}

func TestWasIssuedRing(t *testing.T) {
	tu := &tuEntry{issued: new(prefetch.Issued)}
	for i := 0; i < 64+10; i++ {
		tu.issued.Mark(mem.Line(i + 1))
	}
	if tu.issued.Has(1) {
		t.Error("oldest entry should have rotated out")
	}
	if !tu.issued.Has(64 + 10) {
		t.Error("newest entry missing from ring")
	}
}

func TestOptionsDefaultsApplied(t *testing.T) {
	p := New(DefaultOptions(), testBridge())
	if p.opt.StreamLength != 4 {
		t.Errorf("default stream length = %d, want 4", p.opt.StreamLength)
	}
	if p.opt.MaxDegree != p.opt.StreamLength {
		t.Errorf("default MaxDegree = %d, want the stream length", p.opt.MaxDegree)
	}
}

func TestBufferlessVariantHasFixedDegree(t *testing.T) {
	o := DefaultOptions()
	o.MetaBufferSize = 0
	p := New(o, testBridge())
	if !p.opt.DisableDegreeControl {
		t.Error("bufferless variant should pin the degree (instability is meaningless)")
	}
}

func TestStreamLengthSweepCapacity(t *testing.T) {
	// The store capacity must follow the Section V-C1 packing per length.
	for _, k := range []int{2, 3, 4, 5, 8, 16} {
		o := DefaultOptions()
		o.StreamLength = k
		o.MaxDegree = 4
		p := New(o, testBridge())
		if got := p.store.StreamLength(); got != k {
			t.Errorf("store stream length = %d, want %d", got, k)
		}
	}
}

// TestTUEntrySize guards the training unit's host budget: each entry holds
// a pointer to its issued-line window, not the 648 B window itself.
func TestTUEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(tuEntry{}); got > 152 {
		t.Errorf("tuEntry is %d B, budget 152", got)
	}
}
