package berti_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"streamline/internal/mem"
	"streamline/internal/prefetch"
	"streamline/internal/prefetch/berti"
	"streamline/internal/prefetch/ptest"
)

// refBerti is Berti written from its DESIGN.md row, in the external test
// package, so it shares nothing with the engine but mem and prefetch: 256
// PC slots, the slot and tag hashed from the PC, each PC keeping its last
// 16 accesses and up to 8 deltas with coverage scores. It also counts the
// cases the lockstep stream has to reach.
type refBerti struct {
	// wrapAge reproduces the engine's unsigned age test, under which an
	// access stamped after the training access counts as timely. The
	// lockstep run sets it; fixing the engine's age test deletes it.
	wrapAge bool
	pcs     map[uint64]*refBertiPC // by slot

	displaced, decays, zeroReplaced, capped int
	// late counts the calls whose PC history held an access stamped after
	// them at another line, and lateNow says whether the last call did.
	late    int
	lateNow bool
}

type refBertiPC struct {
	tag      uint64
	hist     []refAccess // newest first
	deltas   []refDelta  // in the order first scored
	accesses int         // since the last decay
}

type refAccess struct {
	line mem.Line
	at   uint64
}

type refDelta struct {
	delta int64
	score int
}

func newRef(wrapAge bool) *refBerti {
	return &refBerti{wrapAge: wrapAge, pcs: map[uint64]*refBertiPC{}}
}

// Train: a PC whose tag does not own its slot takes it over with an empty
// history and no deltas. Each access in the history, newest first, that
// was timely for this one scores the delta from its line to this one's
// (a zero delta scores nothing). Every 64th access of the PC halves its
// scores; then the access joins the history, and the deltas scoring at
// least 30 are prefetched in table order, at most 4, skipping a target at
// or below line 0.
func (r *refBerti) Train(ev prefetch.Event, out []prefetch.Request) []prefetch.Request {
	slot, tag, line := mem.HashPC(ev.PC, 16)%256, mem.HashPC(ev.PC, 24), mem.LineOf(ev.Addr)
	e := r.pcs[slot]
	if e == nil || e.tag != tag {
		if e != nil {
			r.displaced++
		}
		e = &refBertiPC{tag: tag}
		r.pcs[slot] = e
	}
	r.lateNow = false
	for _, h := range e.hist {
		d := int64(line) - int64(h.line)
		if d == 0 {
			continue
		}
		if h.at > ev.Now {
			r.lateNow = true
		}
		if r.timely(h.at, ev.Now) {
			r.score(e, d)
		}
	}
	if r.lateNow {
		r.late++
	}
	if e.accesses++; e.accesses == 64 {
		e.accesses = 0
		r.decays++
		for i := range e.deltas {
			e.deltas[i].score /= 2
		}
	}
	e.hist = append([]refAccess{{line, ev.Now}}, e.hist[:min(len(e.hist), 15)]...)
	issued := 0
	for _, d := range e.deltas {
		if target := int64(line) + d.delta; issued < 4 && d.score >= 30 && target > 0 {
			out = append(out, prefetch.Request{Addr: mem.AddrOf(mem.Line(target))})
			issued++
		}
	}
	return out
}

// timely reports whether an access stamped at could have launched a
// prefetch that beat a demand at now: it came at least 60 cycles before.
func (r *refBerti) timely(at, now uint64) bool {
	if at > now {
		return r.wrapAge
	}
	return now-at >= 60
}

// score raises a tracked delta's score, saturating at 63. An untracked
// delta joins with score 1 while fewer than 8 are tracked; in a full table
// it replaces the first lowest-scoring delta, only if that one scores 0.
func (r *refBerti) score(e *refBertiPC, d int64) {
	weakest := 0
	for i := range e.deltas {
		if e.deltas[i].delta == d {
			if e.deltas[i].score == 63 {
				r.capped++
			} else {
				e.deltas[i].score++
			}
			return
		}
		if e.deltas[i].score < e.deltas[weakest].score {
			weakest = i
		}
	}
	switch {
	case len(e.deltas) < 8:
		e.deltas = append(e.deltas, refDelta{d, 1})
	case e.deltas[weakest].score == 0:
		e.deltas[weakest] = refDelta{d, 1}
		r.zeroReplaced++
	}
}

// refSlot renders reference slot k in the terms of the engine's Slot view,
// for the compare alone, nil when no PC holds it.
func refSlot(r *refBerti, k int) *berti.Slot {
	e := r.pcs[uint64(k)]
	if e == nil {
		return nil
	}
	s := &berti.Slot{Tag: e.tag, Seen: e.accesses}
	for _, h := range e.hist {
		s.Hist = append(s.Hist, berti.Access{Line: h.line, At: h.at})
	}
	for _, d := range e.deltas {
		s.Deltas = append(s.Deltas, berti.Delta{Delta: d.delta, Score: d.score})
	}
	return s
}

// lockstepEvents returns n training events in bursts of 4 to 60 accesses,
// each from one of 700 PCs, more than the table has slots. A PC walks a
// pattern of one to three deltas, or random lines near its last one (which
// fills its delta table with weak deltas), 5 to 80 cycles apart; about one
// access in 64 is stamped up to 200 cycles before the previous one, as the
// simulator's out-of-order stamps can be.
func lockstepEvents(n int) []prefetch.Event {
	rng := rand.New(rand.NewSource(50))
	const pcs = 700
	var last [pcs]int64
	for i := range last {
		last[i] = int64(1<<20 + rng.Intn(1<<20))
	}
	evs := make([]prefetch.Event, 0, n)
	now := uint64(1000)
	for len(evs) < n {
		pc := rng.Intn(pcs)
		if rng.Intn(4) != 0 {
			pc %= 64
		}
		pattern := []int64{int64(pc%9) - 4, int64(pc % 5), 3}[:1+pc%3]
		gap := 5 + rng.Intn(76)
		for k := 4 + rng.Intn(57); k > 0 && len(evs) < n; k-- {
			if pc%4 == 3 {
				last[pc] += int64(rng.Intn(41)) - 20
			} else {
				last[pc] += pattern[k%len(pattern)]
			}
			if last[pc] < 0 {
				last[pc] = 2
			}
			now += uint64(gap)
			at := now
			if rng.Intn(64) == 0 {
				at -= uint64(rng.Intn(200))
			}
			evs = append(evs, prefetch.Event{
				Now: at, PC: mem.PC(0x400000 + pc*4), Addr: mem.AddrOf(mem.Line(last[pc])),
			})
		}
	}
	return evs
}

// lockstep runs Berti against ref over the lockstep stream, comparing the
// trained PC's slot after every call and the whole table every 1,024 calls
// and at the end.
func lockstep(ref *refBerti) ptest.Lockstep {
	p, evs := berti.New(), lockstepEvents(200_000)
	same := func(k int) error {
		if got, want := p.Slot(k), refSlot(ref, k); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("slot %d is %+v, reference %+v", k, got, want)
		}
		return nil
	}
	return ptest.Lockstep{
		Engine: p.Train, Ref: ref.Train, Events: evs,
		Step: func(at int) error { return same(int(mem.HashPC(evs[at].PC, 16) % 256)) },
		Tables: func(int) error {
			for k := range 256 {
				if err := same(k); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// TestLockstepWithReference runs Berti in lockstep with the reference
// written from its description, the age test wrapping as the engine's does.
func TestLockstepWithReference(t *testing.T) {
	ref := newRef(true)
	l := lockstep(ref)
	l.Needs = []ptest.Need{
		ptest.AtLeast(1, "displacements (the displaced PC's block reused)", &ref.displaced),
		ptest.AtLeast(1, "64-access decays", &ref.decays),
		ptest.AtLeast(1, "zero-score deltas replaced in a full table", &ref.zeroReplaced),
		ptest.AtLeast(1, "scores bumped at the 63 cap", &ref.capped),
		ptest.AtLeast(1, "calls meeting a later-stamped access", &ref.late),
	}
	l.Run(t)
}

// TestBertiTimelinessWrap pins the engine's wrapping age test: against a
// reference to which an access stamped after the training access is never
// timely, Berti diverges, and first at an event whose PC history holds such
// an access at another line, so at no event before one. Fixing the age
// test makes the two agree, which flips this test.
func TestBertiTimelinessWrap(t *testing.T) {
	ref := newRef(false)
	at, err := lockstep(ref).Diverge()
	switch {
	case err == nil:
		t.Fatal("Berti agrees with a reference that never counts a later-stamped access as timely")
	case !ref.lateNow:
		t.Fatalf("event %d: first divergence (%v) at an event whose history holds no later-stamped access", at, err)
	}
	t.Logf("first divergence at event %d, after %d events met a later-stamped access: %v", at, ref.late, err)
}

// TestTrainAllocatesNothing: once every PC of a stream has its block, Train
// allocates nothing, displacements included.
func TestTrainAllocatesNothing(t *testing.T) {
	ptest.TrainAllocatesNothing(t, factory, lockstepEvents(20_000), true)
}

// BenchmarkTrain trains one Berti over a fixed 16,384-event slice of the
// lockstep stream, on which it issues, cycled through.
func BenchmarkTrain(b *testing.B) { ptest.BenchmarkTrain(b, berti.New(), lockstepEvents(1<<14)) }
