package ipcp_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"streamline/internal/mem"
	"streamline/internal/prefetch"
	"streamline/internal/prefetch/ipcp"
	"streamline/internal/prefetch/ptest"
)

// refIPCP is IPCP written from its DESIGN.md row, in the external test
// package, so it shares nothing with the engine but mem and prefetch: 256
// PC slots, the slot and tag hashed from the PC, each PC keeping its last
// line, a stride and a signature; 4096 signature entries shared by every
// PC; and the regions of the last 32 trained accesses. It also counts the
// calls each class issues on.
type refIPCP struct {
	pcs     map[uint64]*refPC // by slot
	sigs    []refDelta        // by signature
	regions []mem.Line        // oldest first, region 0 before any access

	cs, cplx, gs int
}

type refPC struct {
	tag    uint64
	last   mem.Line
	stride refDelta
	sig    int
}

// refDelta is a delta with its confidence: a PC's stride or a signature's
// entry, both trained by one rule.
type refDelta struct{ delta, conf int64 }

// train: a repeat of the delta raises the confidence to at most 3; any other
// d lowers it, and replaces the delta once it reaches zero.
func (r *refDelta) train(d int64) {
	switch {
	case d == r.delta:
		r.conf = min(r.conf+1, 3)
	case r.conf > 1:
		r.conf--
	default:
		*r = refDelta{d, 0}
	}
}

func newRef() *refIPCP {
	return &refIPCP{pcs: map[uint64]*refPC{}, sigs: make([]refDelta, 4096), regions: make([]mem.Line, 32)}
}

// Train: a PC whose tag does not own its slot takes it over, remembering
// only its line. A repeat of the last line changes nothing. Otherwise the
// delta trains the PC's stride, then the entry at its signature, which
// moves on by the delta, and the access's region joins the window. A
// confident stride issues up to 4 strides ahead; else a confident entry at
// the new signature walks up to 3 steps of the chain; else a region holding
// 24 of the window's 32 slots issues the next 4 lines.
func (r *refIPCP) Train(ev prefetch.Event, out []prefetch.Request) []prefetch.Request {
	slot, tag, line := mem.HashPC(ev.PC, 16)%256, mem.HashPC(ev.PC, 24), mem.LineOf(ev.Addr)
	e := r.pcs[slot]
	if e == nil || e.tag != tag {
		r.pcs[slot] = &refPC{tag: tag, last: line}
		return out
	}
	if line == e.last {
		return out
	}
	d := int64(line) - int64(e.last)
	e.last = line
	e.stride.train(d)
	r.sigs[e.sig].train(d)
	e.sig = (e.sig<<3 ^ int(uint64(d)&0x3f)) & 0xfff
	r.regions = append(r.regions[1:], line>>5)
	issue := func(l int64) { out = append(out, prefetch.Request{Addr: mem.AddrOf(mem.Line(l))}) }
	switch {
	case e.stride.conf >= 2:
		r.cs++
		for k := int64(1); k <= 4 && int64(line)+k*e.stride.delta > 0; k++ {
			issue(int64(line) + k*e.stride.delta)
		}
	case r.sigs[e.sig].conf >= 2:
		r.cplx++
		at, s := int64(line), e.sig
		for k := 0; k < 3 && r.sigs[s].conf >= 2 && at+r.sigs[s].delta > 0; k++ {
			d := r.sigs[s].delta
			at += d
			issue(at)
			s = (s<<3 ^ int(uint64(d)&0x3f)) & 0xfff
		}
	case countOf(r.regions, line>>5) >= 24:
		r.gs++
		for k := int64(1); k <= 4; k++ {
			issue(int64(line) + k)
		}
	}
	return out
}

func countOf(regions []mem.Line, g mem.Line) (n int) {
	for _, x := range regions {
		if x == g {
			n++
		}
	}
	return n
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

// TestLockstepWithReference runs IPCP in lockstep with the reference
// written from its description, comparing the IP table, the signature
// entries and the global-stream window every 1,024 calls and at the end.
func TestLockstepWithReference(t *testing.T) {
	p, ref := ipcp.New(), newRef()
	ptest.Lockstep{
		Engine: p.Train, Ref: ref.Train, Events: lockstepEvents(200_000),
		Tables: func(int) error {
			for k := range 256 {
				var want *ipcp.Slot
				if e := ref.pcs[uint64(k)]; e != nil {
					want = &ipcp.Slot{Tag: e.tag, Last: e.last, Stride: e.stride.delta, Conf: e.stride.conf, Sig: e.sig}
				}
				if got := p.Slot(k); !reflect.DeepEqual(got, want) {
					return fmt.Errorf("slot %d is %+v, reference %+v", k, got, want)
				}
			}
			for s, want := range ref.sigs {
				if d, c := p.Signature(s); d != want.delta || c != want.conf {
					return fmt.Errorf("signature %#x holds {%d %d}, reference %+v", s, d, c, want)
				}
			}
			if got := p.Window(); !slices.Equal(got, ref.regions) {
				return fmt.Errorf("global-stream window is %v, reference %v", got, ref.regions)
			}
			return nil
		},
		Needs: []ptest.Need{
			ptest.AtLeast(1, "constant-stride issuing calls", &ref.cs),
			ptest.AtLeast(1, "complex-stride issuing calls", &ref.cplx),
			ptest.AtLeast(1, "global-stream issuing calls", &ref.gs),
		},
	}.Run(t)
}

// TestTrainAllocatesNothing: a constructed IPCP trains and issues from all
// three classes without allocating.
func TestTrainAllocatesNothing(t *testing.T) {
	ptest.TrainAllocatesNothing(t, factory, lockstepEvents(20_000), false)
}

// BenchmarkTrain trains one IPCP over a fixed 16,384-event slice of the
// lockstep stream, on which all three classes issue, cycled through.
func BenchmarkTrain(b *testing.B) { ptest.BenchmarkTrain(b, ipcp.New(), lockstepEvents(1<<14)) }
