package stride_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"streamline/internal/mem"
	"streamline/internal/prefetch"
	"streamline/internal/prefetch/ptest"
	"streamline/internal/prefetch/stride"
)

// refStride is the IP-stride prefetcher written from its DESIGN.md row, in
// the external test package, so it shares nothing with the engine but mem
// and prefetch: 256 PC slots, the slot and tag hashed from the PC, each PC
// keeping its last line, its stride and a confidence. It also counts the
// cases the lockstep stream has to reach.
type refStride struct {
	pcs map[uint64]*refPC // by slot

	displaced, retrained, issues int
}

type refPC struct {
	tag          uint64
	last         mem.Line
	stride, conf int64
}

// Train: a PC whose tag does not own its slot takes it over, remembering
// only its line. A repeat of the last line changes nothing. Otherwise a
// repeat of the stride raises the confidence to at most 3; any other stride
// lowers it, and the PC retrains to the new stride once it reaches zero. At
// confidence 2 or more it prefetches 1, 2 and 3 strides ahead of the line,
// stopping at the first negative target.
func (r *refStride) Train(ev prefetch.Event, out []prefetch.Request) []prefetch.Request {
	slot, tag, line := mem.HashPC(ev.PC, 16)%256, mem.HashPC(ev.PC, 24), mem.LineOf(ev.Addr)
	e := r.pcs[slot]
	if e == nil || e.tag != tag {
		if e != nil {
			r.displaced++
		}
		r.pcs[slot] = &refPC{tag: tag, last: line}
		return out
	}
	if line == e.last {
		return out
	}
	s := int64(line) - int64(e.last)
	e.last = line
	switch {
	case s == e.stride:
		e.conf = min(e.conf+1, 3)
	case e.conf > 1:
		e.conf--
	default:
		e.stride, e.conf = s, 0
		r.retrained++
	}
	if e.conf < 2 {
		return out
	}
	r.issues++
	for k := int64(1); k <= 3 && int64(line)+k*e.stride >= 0; k++ {
		out = append(out, prefetch.Request{Addr: mem.AddrOf(mem.Line(int64(line) + k*e.stride))})
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

// TestLockstepWithReference runs the engine in lockstep with the reference
// written from its description, comparing the whole table every 1,024
// calls and at the end.
func TestLockstepWithReference(t *testing.T) {
	p, ref := stride.New(), &refStride{pcs: map[uint64]*refPC{}}
	ptest.Lockstep{
		Engine: p.Train, Ref: ref.Train, Events: lockstepEvents(200_000),
		Tables: func(int) error {
			for k := range 256 {
				var want *stride.Slot
				if r := ref.pcs[uint64(k)]; r != nil {
					want = &stride.Slot{Tag: r.tag, Last: r.last, Stride: r.stride, Conf: r.conf}
				}
				if got := p.Slot(k); !reflect.DeepEqual(got, want) {
					return fmt.Errorf("slot %d is %+v, reference %+v", k, got, want)
				}
			}
			return nil
		},
		Needs: []ptest.Need{
			ptest.AtLeast(1, "displacements", &ref.displaced),
			ptest.AtLeast(1, "stride retrainings", &ref.retrained),
			ptest.AtLeast(1, "issuing calls", &ref.issues),
		},
	}.Run(t)
}

// TestTrainAllocatesNothing: a constructed stride prefetcher trains and
// issues without allocating.
func TestTrainAllocatesNothing(t *testing.T) {
	ptest.TrainAllocatesNothing(t, factory, lockstepEvents(20_000), false)
}

// BenchmarkTrain trains one stride prefetcher over a fixed 16,384-event
// slice of the lockstep stream, on which it issues, cycled through.
func BenchmarkTrain(b *testing.B) { ptest.BenchmarkTrain(b, stride.New(), lockstepEvents(1<<14)) }
