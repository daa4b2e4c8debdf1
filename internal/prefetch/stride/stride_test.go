package stride

import (
	"testing"
	"unsafe"

	"streamline/internal/mem"
	"streamline/internal/prefetch"
)

func drive(p *Prefetcher, pc mem.PC, addrs []mem.Addr) []prefetch.Request {
	var all, buf []prefetch.Request
	for i, a := range addrs {
		buf = p.Train(prefetch.Event{Now: uint64(i), PC: pc, Addr: a}, buf[:0])
		all = append(all, buf...)
	}
	return all
}

func TestDetectsUnitLineStride(t *testing.T) {
	p := New()
	var addrs []mem.Addr
	for i := 0; i < 10; i++ {
		addrs = append(addrs, mem.Addr(i*64))
	}
	reqs := drive(p, 1, addrs)
	if len(reqs) == 0 {
		t.Fatal("no prefetches on a unit-stride stream")
	}
	// Requests should be degree-3 ahead of the training address.
	last := reqs[len(reqs)-1]
	if mem.LineOf(last.Addr) != mem.LineOf(addrs[len(addrs)-1])+3 {
		t.Errorf("last prefetch %d lines ahead, want 3",
			mem.LineOf(last.Addr)-mem.LineOf(addrs[len(addrs)-1]))
	}
}

func TestIgnoresSubLineAccesses(t *testing.T) {
	p := New()
	var addrs []mem.Addr
	for i := 0; i < 32; i++ {
		addrs = append(addrs, mem.Addr(i*8)) // 8B stride: 8 accesses per line
	}
	reqs := drive(p, 1, addrs)
	// Line-crossings still form a unit line stride; prefetches must target
	// future lines, not the current one.
	for _, r := range reqs {
		if mem.LineOf(r.Addr) <= mem.LineOf(addrs[len(addrs)-1])-1 {
			t.Errorf("prefetch %#x behind the stream", r.Addr)
		}
	}
	if len(reqs) == 0 {
		t.Error("no prefetches despite a line-level stride")
	}
}

func TestDetectsLargeStride(t *testing.T) {
	p := New()
	var addrs []mem.Addr
	for i := 0; i < 10; i++ {
		addrs = append(addrs, mem.Addr(i*4096)) // 64-line stride
	}
	reqs := drive(p, 1, addrs)
	if len(reqs) == 0 {
		t.Fatal("no prefetches on a large-stride stream")
	}
	d := int64(mem.LineOf(reqs[0].Addr)) - int64(mem.LineOf(addrs[len(addrs)-1]))
	if d%64 != 0 {
		t.Errorf("prefetch delta %d not a stride multiple", d)
	}
}

func TestNoPrefetchOnRandom(t *testing.T) {
	p := New()
	x := uint64(12345)
	var addrs []mem.Addr
	for i := 0; i < 200; i++ {
		x = x*6364136223846793005 + 1
		addrs = append(addrs, mem.Addr(x>>16)&^63)
	}
	reqs := drive(p, 1, addrs)
	if len(reqs) > 20 {
		t.Errorf("%d prefetches on random accesses", len(reqs))
	}
}

func TestPerPCIsolation(t *testing.T) {
	p := New()
	// PC 1 strides by +1 line, PC 2 by -2 lines, interleaved.
	var reqs []prefetch.Request
	var buf []prefetch.Request
	for i := 0; i < 20; i++ {
		buf = p.Train(prefetch.Event{PC: 1, Addr: mem.Addr(i * 64)}, buf[:0])
		reqs = append(reqs, buf...)
		buf = p.Train(prefetch.Event{PC: 2, Addr: mem.Addr((1 << 20) - i*128)}, buf[:0])
		reqs = append(reqs, buf...)
	}
	if len(reqs) == 0 {
		t.Fatal("interleaved strided PCs produced no prefetches")
	}
}

// TestEntrySize pins the table entry at 24 B: a 256-entry table of 6 KB.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 24 {
		t.Errorf("entry is %d B, want 24", n)
	}
}
