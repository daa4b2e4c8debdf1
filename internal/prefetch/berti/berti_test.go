package berti

import (
	"testing"
	"unsafe"

	"streamline/internal/mem"
	"streamline/internal/prefetch"
)

// drive feeds addresses with a fixed cycle gap per access.
func drive(p *Prefetcher, pc mem.PC, lines []mem.Line, gap uint64) []prefetch.Request {
	var all, buf []prefetch.Request
	for i, l := range lines {
		buf = p.Train(prefetch.Event{Now: uint64(i) * gap, PC: pc, Addr: mem.AddrOf(l)}, buf[:0])
		all = append(all, buf...)
	}
	return all
}

func TestLearnsTimelyDelta(t *testing.T) {
	p := New()
	var lines []mem.Line
	for i := 0; i < 300; i++ {
		lines = append(lines, mem.Line(1000+i))
	}
	reqs := drive(p, 1, lines, 30) // 30 cycles/access: delta 2+ is timely
	if len(reqs) == 0 {
		t.Fatal("no prefetches on a dense unit stream")
	}
	// Issued deltas should jump far enough ahead to be timely (>= 2).
	ahead := 0
	for _, r := range reqs {
		if mem.LineOf(r.Addr) >= 2 {
			ahead++
		}
	}
	if ahead == 0 {
		t.Error("no timely-deep prefetches issued")
	}
}

func TestTimelinessFiltersTightDeltas(t *testing.T) {
	p := New()
	var lines []mem.Line
	for i := 0; i < 100; i++ {
		lines = append(lines, mem.Line(1000+i))
	}
	// 3 cycles per access: only deltas >= 20 lines back beat the 60-cycle
	// timeliness bar, and the history is only 16 deep, so nothing should
	// qualify.
	reqs := drive(p, 1, lines, 3)
	if len(reqs) != 0 {
		t.Errorf("%d prefetches from untimely deltas", len(reqs))
	}
}

func TestMultipleDeltas(t *testing.T) {
	// A two-phase pattern: +3 / +5 alternating; Berti should learn the +8
	// composite or the individual deltas and prefetch something useful.
	p := New()
	var lines []mem.Line
	l := mem.Line(5000)
	for i := 0; i < 400; i++ {
		if i%2 == 0 {
			l += 3
		} else {
			l += 5
		}
		lines = append(lines, l)
	}
	reqs := drive(p, 1, lines, 40)
	if len(reqs) == 0 {
		t.Fatal("no prefetches on an alternating-delta stream")
	}
	// Check that prefetched lines actually occur later in the stream.
	future := map[mem.Line]bool{}
	for _, ln := range lines {
		future[ln] = true
	}
	hit := 0
	for _, r := range reqs {
		if future[mem.LineOf(r.Addr)] {
			hit++
		}
	}
	if float64(hit)/float64(len(reqs)) < 0.5 {
		t.Errorf("only %d/%d prefetches land on the stream", hit, len(reqs))
	}
}

func TestRandomStreamStaysQuiet(t *testing.T) {
	p := New()
	x := uint64(7)
	var lines []mem.Line
	for i := 0; i < 500; i++ {
		x = x*6364136223846793005 + 1
		lines = append(lines, mem.Line(x>>20))
	}
	reqs := drive(p, 1, lines, 30)
	if len(reqs) > 50 {
		t.Errorf("%d prefetches on random stream", len(reqs))
	}
}

// TestReplacementAllocatesNothing: PCs that collide on one table index evict
// each other on every access, and each replacement reuses the evicted
// entry's per-PC block.
func TestReplacementAllocatesNothing(t *testing.T) {
	p := New()
	idx := func(pc mem.PC) int { return int(mem.HashPC(pc, 16)) % len(p.table) }
	a, b := mem.PC(0x400000), mem.PC(0x400004)
	for idx(b) != idx(a) || mem.HashPC(b, 24) == mem.HashPC(a, 24) {
		b += 4
	}
	buf := make([]prefetch.Request, 0, maxIssue)
	now := uint64(0)
	train := func() {
		for _, pc := range []mem.PC{a, b} {
			now += 100
			buf = p.Train(prefetch.Event{Now: now, PC: pc, Addr: mem.AddrOf(mem.Line(now))}, buf[:0])
		}
	}
	train()
	if n := testing.AllocsPerRun(100, train); n != 0 {
		t.Errorf("%v allocations per pair of colliding Train calls, want 0", n)
	}
}

// TestEntrySize pins the table entry at 16 B, the per-PC block behind it
// holding the history and the deltas.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 16 {
		t.Errorf("entry is %d B, want 16", n)
	}
}
