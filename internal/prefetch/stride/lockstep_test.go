package stride

import (
	"math/rand"
	"testing"
	"unsafe"

	"streamline/internal/mem"
	"streamline/internal/prefetch"
)

// refEntry is a table entry as it stood with an int confidence, 40 B.
type refEntry struct {
	tag    uint32
	last   mem.Line
	stride int64
	conf   int
	valid  bool
}

// refStride is the IP-stride prefetcher over 40 B entries: the reference
// the 24 B entries must match decision for decision. It also counts the
// cases the lockstep stream has to reach.
type refStride struct {
	table [tableSize]refEntry

	displaced, retrained, issues int
}

func (p *refStride) Train(ev prefetch.Event, out []prefetch.Request) []prefetch.Request {
	idx := mem.HashPC(ev.PC, 16) % tableSize
	tag := uint32(mem.HashPC(ev.PC, 24))
	line := ev.Line()
	e := &p.table[idx]
	if !e.valid || e.tag != tag {
		if e.valid {
			p.displaced++
		}
		*e = refEntry{tag: tag, last: line, valid: true}
		return out
	}
	s := int64(line) - int64(e.last)
	if s == 0 {
		return out
	}
	if s == e.stride {
		if e.conf < confidenceMax {
			e.conf++
		}
	} else {
		e.conf--
		if e.conf <= 0 {
			e.conf = 0
			e.stride = s
			p.retrained++
		}
	}
	e.last = line
	if e.conf >= threshold && e.stride != 0 {
		p.issues++
		for d := 1; d <= degree; d++ {
			target := int64(line) + e.stride*int64(d)
			if target < 0 {
				break
			}
			out = append(out, prefetch.Request{Addr: mem.AddrOf(mem.Line(target))})
		}
	}
	return out
}

// lockstepEvents returns n training events from 600 PCs, more than the
// table has slots: each PC walks its own stride (negative ones included,
// some crossing line 0), repeats a line now and then, and about one access
// in eight jumps to a random line.
func lockstepEvents(n int) []prefetch.Event {
	rng := rand.New(rand.NewSource(50))
	const pcs = 600
	var next [pcs]int64
	for i := range next {
		next[i] = int64(rng.Intn(1 << 20))
	}
	evs := make([]prefetch.Event, n)
	for i := range evs {
		pc := rng.Intn(pcs)
		if rng.Intn(4) != 0 {
			pc %= 40 // a hot set of PCs keeps entries long enough to train
		}
		switch stride := int64(pc%9) - 4; {
		case rng.Intn(8) == 0:
			next[pc] = int64(rng.Intn(1 << 20))
		case rng.Intn(16) != 0:
			next[pc] += stride
		}
		if next[pc] < 0 {
			next[pc] = 3
		}
		evs[i] = prefetch.Event{
			Now: uint64(i), PC: mem.PC(0x400000 + pc*4), Addr: mem.AddrOf(mem.Line(next[pc])),
		}
	}
	return evs
}

// TestLockstepWithReference drives the stride prefetcher and the 40 B-entry
// reference with the same events and compares the requests after every call
// and the tables every 1,024 calls and at the end.
func TestLockstepWithReference(t *testing.T) {
	p, ref := New(), &refStride{}
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
		for k, r := range ref.table {
			e := p.table[k]
			if e.tag != r.tag || e.last != r.last || e.stride != r.stride || int(e.conf) != r.conf || e.valid != r.valid {
				t.Fatalf("event %d: entry %d is %+v, reference %+v", i, k, e, r)
			}
		}
	}
	t.Logf("%d displacements, %d stride retrainings, %d issuing calls", ref.displaced, ref.retrained, ref.issues)
	if ref.displaced == 0 || ref.retrained == 0 || ref.issues == 0 {
		t.Fatal("the stream must displace PCs, retrain strides and issue")
	}
}

// TestEntrySize pins the table entry at 24 B: a 256-entry table of 6 KB.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 24 {
		t.Errorf("entry is %d B, want 24", n)
	}
}

// TestTrainAllocatesNothing: a constructed stride prefetcher trains and
// issues without allocating.
func TestTrainAllocatesNothing(t *testing.T) {
	evs := lockstepEvents(20_000)
	p := New()
	out := make([]prefetch.Request, 0, degree)
	if n := testing.AllocsPerRun(3, func() {
		for _, ev := range evs {
			out = p.Train(ev, out[:0])
		}
	}); n != 0 {
		t.Errorf("Train allocated %.1f times over %d events", n, len(evs))
	}
}

// BenchmarkTrain trains one stride prefetcher over a fixed 16,384-event
// slice of the lockstep stream, on which it issues, cycled through.
func BenchmarkTrain(b *testing.B) {
	evs := lockstepEvents(1 << 14)
	p := New()
	out := make([]prefetch.Request, 0, degree)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = p.Train(evs[i%len(evs)], out[:0])
	}
	benchOut = out
}

// benchOut keeps the benchmark's result live.
var benchOut []prefetch.Request
