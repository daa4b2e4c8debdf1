package ipcp

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"streamline/internal/mem"
	"streamline/internal/prefetch"
)

// refIPEntry and refCplxEntry are the tables' records as they stood: a
// 40 B instruction-pointer entry with an int confidence, and a 16 B
// delta-signature slot in a separately allocated slice.
type refIPEntry struct {
	tag      uint32
	valid    bool
	last     mem.Line
	stride   int64
	strideOK int
	sig      uint16
}

type refCplxEntry struct {
	delta int64
	conf  int
}

// Ref is IPCP with a []refCplxEntry signature table: the reference the
// fixed arrays must match decision for decision. It also counts the calls
// each class issues on, for the external lockstep test.
type Ref struct {
	ips      [tableSize]refIPEntry
	cplx     []refCplxEntry
	gsWindow [32]mem.Line
	gsNext   int

	CS, Cplx, GS int
}

// NewRef returns an empty reference.
func NewRef() *Ref { return &Ref{cplx: make([]refCplxEntry, 1<<12)} }

func (p *Ref) Train(ev prefetch.Event, out []prefetch.Request) []prefetch.Request {
	line := ev.Line()
	idx := mem.HashPC(ev.PC, 16) % tableSize
	tag := uint32(mem.HashPC(ev.PC, 24))
	e := &p.ips[idx]
	if !e.valid || e.tag != tag {
		*e = refIPEntry{tag: tag, valid: true, last: line}
		return out
	}
	delta := int64(line) - int64(e.last)
	if delta == 0 {
		return out
	}
	if delta == e.stride {
		if e.strideOK < 3 {
			e.strideOK++
		}
	} else {
		e.strideOK--
		if e.strideOK <= 0 {
			e.strideOK = 0
			e.stride = delta
		}
	}
	ce := &p.cplx[e.sig]
	if ce.delta == delta {
		if ce.conf < 3 {
			ce.conf++
		}
	} else {
		ce.conf--
		if ce.conf <= 0 {
			ce.conf = 0
			ce.delta = delta
		}
	}
	sig := nextSig(e.sig, delta)
	p.gsWindow[p.gsNext] = line >> 5
	p.gsNext = (p.gsNext + 1) % len(p.gsWindow)
	dense := 0
	for _, r := range &p.gsWindow {
		if r == line>>5 {
			dense++
		}
	}
	e.last = line
	e.sig = sig
	switch {
	case e.strideOK >= 2 && e.stride != 0:
		p.CS++
		for d := 1; d <= csDegree; d++ {
			t := int64(line) + e.stride*int64(d)
			if t <= 0 {
				break
			}
			out = append(out, prefetch.Request{Addr: mem.AddrOf(mem.Line(t))})
		}
	case p.cplx[sig].conf >= 2 && p.cplx[sig].delta != 0:
		p.Cplx++
		cur := int64(line)
		s := sig
		for i := 0; i < cplxDepth; i++ {
			ce := p.cplx[s]
			if ce.conf < 2 || ce.delta == 0 {
				break
			}
			cur += ce.delta
			if cur <= 0 {
				break
			}
			out = append(out, prefetch.Request{Addr: mem.AddrOf(mem.Line(cur))})
			s = nextSig(s, ce.delta)
		}
	case dense >= 24:
		p.GS++
		for d := 1; d <= gsDegree; d++ {
			out = append(out, prefetch.Request{Addr: mem.AddrOf(line + mem.Line(d))})
		}
	}
	return out
}

// LockstepEvents returns n training events in bursts of 8 to 40 accesses,
// each from one of 500 PCs, more than the table has slots. A burst is one
// of three kinds: a constant stride, a repeating pattern of two to four
// deltas, or random lines within one 2 KB region; now and then it starts at
// a random line, some of them near line 0.
func LockstepEvents(n int) []prefetch.Event {
	rng := rand.New(rand.NewSource(50))
	const pcs = 500
	var last [pcs]int64
	for i := range last {
		last[i] = int64(1<<20 + rng.Intn(1<<20))
	}
	evs := make([]prefetch.Event, 0, n)
	for len(evs) < n {
		pc := rng.Intn(pcs)
		if rng.Intn(4) != 0 {
			pc %= 48
		}
		if rng.Intn(8) == 0 {
			last[pc] = int64(rng.Intn(1 << 21))
		}
		pattern := []int64{int64(pc%7) - 3, int64(pc%5) + 1, -int64(pc % 3), 2}[:2+pc%3]
		for k := 8 + rng.Intn(33); k > 0 && len(evs) < n; k-- {
			switch pc % 3 {
			case 0:
				last[pc] += int64(pc%11) - 5
			case 1:
				last[pc] += pattern[k%len(pattern)]
			default:
				last[pc] = last[pc]&^31 | int64(rng.Intn(32))
			}
			if last[pc] < 0 {
				last[pc] = 1
			}
			evs = append(evs, prefetch.Event{
				Now: uint64(len(evs)), PC: mem.PC(0x400000 + pc*4), Addr: mem.AddrOf(mem.Line(last[pc])),
			})
		}
	}
	return evs
}

// SameTables compares all of IPCP's tables with the reference's.
func SameTables(p *Prefetcher, r *Ref) error {
	for k, re := range r.ips {
		if e := p.ips[k]; e.tag != re.tag || e.valid != re.valid || e.last != re.last || e.stride != re.stride ||
			int(e.strideOK) != re.strideOK || e.sig != re.sig {
			return fmt.Errorf("IP entry %d is %+v, reference %+v", k, e, re)
		}
	}
	for s, rc := range r.cplx {
		if p.cplxDelta[s] != rc.delta || int(p.cplxConf[s]) != rc.conf {
			return fmt.Errorf("signature %#x holds {%d %d}, reference %+v", s, p.cplxDelta[s], p.cplxConf[s], rc)
		}
	}
	if p.gsWindow != r.gsWindow || p.gsNext != r.gsNext {
		return fmt.Errorf("global-stream window differs from the reference")
	}
	return nil
}

// TestEntrySize pins the instruction-pointer entry at 24 B.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(ipEntry{}); n != 24 {
		t.Errorf("ipEntry is %d B, want 24", n)
	}
}
