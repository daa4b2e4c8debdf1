package ipcp

import (
	"testing"
	"unsafe"

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

func TestConstantStrideClass(t *testing.T) {
	p := New()
	var lines []mem.Line
	for i := 0; i < 20; i++ {
		lines = append(lines, mem.Line(100+i*5))
	}
	reqs := drive(p, 1, lines)
	if len(reqs) == 0 {
		t.Fatal("CS class issued nothing on constant stride")
	}
	d := int64(mem.LineOf(reqs[len(reqs)-1].Addr)) - int64(lines[len(lines)-1])
	if d%5 != 0 {
		t.Errorf("CS prefetch delta %d not stride multiple", d)
	}
}

func TestComplexStrideClass(t *testing.T) {
	// A repeating delta pattern +1,+2,+3 defeats CS but trains CPLX.
	p := New()
	var lines []mem.Line
	l := mem.Line(1000)
	deltas := []int64{1, 2, 3}
	for i := 0; i < 600; i++ {
		l += mem.Line(deltas[i%3])
		lines = append(lines, l)
	}
	reqs := drive(p, 1, lines)
	if len(reqs) == 0 {
		t.Fatal("CPLX class issued nothing on a repeating delta pattern")
	}
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
	if float64(hit)/float64(len(reqs)) < 0.6 {
		t.Errorf("only %d/%d CPLX prefetches on-stream", hit, len(reqs))
	}
}

func TestRandomQuiet(t *testing.T) {
	p := New()
	x := uint64(3)
	var lines []mem.Line
	for i := 0; i < 500; i++ {
		x = x*6364136223846793005 + 1
		lines = append(lines, mem.Line(x>>18))
	}
	reqs := drive(p, 1, lines)
	if len(reqs) > 60 {
		t.Errorf("%d prefetches on random stream", len(reqs))
	}
}

// TestEntrySize pins the instruction-pointer entry at 24 B.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(ipEntry{}); n != 24 {
		t.Errorf("ipEntry is %d B, want 24", n)
	}
}
