package ipcp

import (
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

// refIPCP is IPCP with a []refCplxEntry signature table: the reference the
// fixed arrays must match decision for decision. It also counts the calls
// each class issues on.
type refIPCP struct {
	ips      [tableSize]refIPEntry
	cplx     []refCplxEntry
	gsWindow [32]mem.Line
	gsNext   int

	cs, cplxIssues, gs int
}

func newRef() *refIPCP { return &refIPCP{cplx: make([]refCplxEntry, 1<<12)} }

func (p *refIPCP) Train(ev prefetch.Event, out []prefetch.Request) []prefetch.Request {
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
		p.cs++
		for d := 1; d <= csDegree; d++ {
			t := int64(line) + e.stride*int64(d)
			if t <= 0 {
				break
			}
			out = append(out, prefetch.Request{Addr: mem.AddrOf(mem.Line(t))})
		}
	case p.cplx[sig].conf >= 2 && p.cplx[sig].delta != 0:
		p.cplxIssues++
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
		p.gs++
		for d := 1; d <= gsDegree; d++ {
			out = append(out, prefetch.Request{Addr: mem.AddrOf(line + mem.Line(d))})
		}
	}
	return out
}

// lockstepEvents returns n training events in bursts of 8 to 40 accesses,
// each from one of 500 PCs, more than the table has slots. A burst is one
// of three kinds: a constant stride, a repeating pattern of two to four
// deltas, or random lines within one 2 KB region; now and then it starts at
// a random line, some of them near line 0.
func lockstepEvents(n int) []prefetch.Event {
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

// TestLockstepWithReference drives IPCP and the slice-table reference with
// the same events and compares the requests after every call and all the
// tables every 1,024 calls and at the end.
func TestLockstepWithReference(t *testing.T) {
	p, ref := New(), newRef()
	var got, want []prefetch.Request
	evs := lockstepEvents(200_000)
	for i, ev := range evs {
		got = p.Train(ev, got[:0])
		want = ref.Train(ev, want[:0])
		if len(got) != len(want) {
			t.Fatalf("event %d: %d requests, reference %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("event %d request %d: %+v, reference %+v", i, j, got[j], want[j])
			}
		}
		if i%1024 != 1023 && i != len(evs)-1 {
			continue
		}
		for k, r := range ref.ips {
			e := p.ips[k]
			if e.tag != r.tag || e.valid != r.valid || e.last != r.last || e.stride != r.stride ||
				int(e.strideOK) != r.strideOK || e.sig != r.sig {
				t.Fatalf("event %d: IP entry %d is %+v, reference %+v", i, k, e, r)
			}
		}
		for s, r := range ref.cplx {
			if p.cplxDelta[s] != r.delta || int(p.cplxConf[s]) != r.conf {
				t.Fatalf("event %d: signature %#x holds {%d %d}, reference %+v", i, s, p.cplxDelta[s], p.cplxConf[s], r)
			}
		}
		if p.gsWindow != ref.gsWindow || p.gsNext != ref.gsNext {
			t.Fatalf("event %d: global-stream window differs from the reference", i)
		}
	}
	t.Logf("issuing calls: %d constant-stride, %d complex-stride, %d global-stream", ref.cs, ref.cplxIssues, ref.gs)
	if ref.cs == 0 || ref.cplxIssues == 0 || ref.gs == 0 {
		t.Fatal("the stream must make all three classes issue")
	}
}

// TestEntrySize pins the instruction-pointer entry at 24 B.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(ipEntry{}); n != 24 {
		t.Errorf("ipEntry is %d B, want 24", n)
	}
}

// TestTrainAllocatesNothing: a constructed IPCP trains and issues from all
// three classes without allocating.
func TestTrainAllocatesNothing(t *testing.T) {
	evs := lockstepEvents(20_000)
	p := New()
	out := make([]prefetch.Request, 0, csDegree)
	if n := testing.AllocsPerRun(3, func() {
		for _, ev := range evs {
			out = p.Train(ev, out[:0])
		}
	}); n != 0 {
		t.Errorf("Train allocated %.1f times over %d events", n, len(evs))
	}
}

// BenchmarkTrain trains one IPCP over a fixed 16,384-event slice of the
// lockstep stream, on which all three classes issue, cycled through.
func BenchmarkTrain(b *testing.B) {
	evs := lockstepEvents(1 << 14)
	p := New()
	out := make([]prefetch.Request, 0, csDegree)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = p.Train(evs[i%len(evs)], out[:0])
	}
	benchOut = out
}

// benchOut keeps the benchmark's result live.
var benchOut []prefetch.Request
