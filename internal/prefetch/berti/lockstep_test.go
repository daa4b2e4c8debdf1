package berti

import (
	"math/rand"
	"testing"
	"unsafe"

	"streamline/internal/mem"
	"streamline/internal/prefetch"
)

// refEntry is a table entry as it stood: 72 B holding two slices, the
// history and the scored deltas, which a displacing PC reuses.
type refEntry struct {
	tag    uint32
	valid  bool
	hist   []histEntry
	histN  int
	deltas []refDelta
	seen   int
}

type refDelta struct {
	delta int64
	score int
}

// refBerti is Berti with per-PC slices: the reference the per-PC blocks
// must match decision for decision. It also counts the cases the lockstep
// stream has to reach.
type refBerti struct {
	table [tableSize]refEntry

	reuses, decays, zeroReplaced, saturated int
}

func (p *refBerti) Train(ev prefetch.Event, out []prefetch.Request) []prefetch.Request {
	line := ev.Line()
	idx := mem.HashPC(ev.PC, 16) % tableSize
	tag := uint32(mem.HashPC(ev.PC, 24))
	e := &p.table[idx]
	if !e.valid || e.tag != tag {
		hist, deltas := e.hist, e.deltas[:0]
		if hist == nil {
			hist = make([]histEntry, historyLen)
			deltas = make([]refDelta, 0, maxDeltas)
		} else {
			p.reuses++
		}
		*e = refEntry{tag: tag, valid: true, hist: hist, deltas: deltas}
	}
	for i := 0; i < e.histN; i++ {
		h := e.hist[i]
		if ev.Now-h.at < timelyCycles {
			continue
		}
		d := int64(line) - int64(h.line)
		if d == 0 {
			continue
		}
		p.bump(e, d)
	}
	e.seen++
	if e.seen >= 64 {
		e.seen = 0
		p.decays++
		for i := range e.deltas {
			e.deltas[i].score /= 2
		}
	}
	copy(e.hist[1:], e.hist[:len(e.hist)-1])
	e.hist[0] = histEntry{line: line, at: ev.Now}
	if e.histN < len(e.hist) {
		e.histN++
	}
	issued := 0
	for _, ds := range e.deltas {
		if issued >= maxIssue {
			break
		}
		if ds.score < issueThreshold {
			continue
		}
		target := int64(line) + ds.delta
		if target <= 0 {
			continue
		}
		out = append(out, prefetch.Request{Addr: mem.AddrOf(mem.Line(target))})
		issued++
	}
	return out
}

func (p *refBerti) bump(e *refEntry, d int64) {
	weakest, weakestScore := -1, 1<<30
	for i := range e.deltas {
		if e.deltas[i].delta == d {
			if e.deltas[i].score < 63 {
				e.deltas[i].score++
			} else {
				p.saturated++
			}
			return
		}
		if e.deltas[i].score < weakestScore {
			weakest, weakestScore = i, e.deltas[i].score
		}
	}
	if len(e.deltas) < maxDeltas {
		e.deltas = append(e.deltas, refDelta{delta: d, score: 1})
		return
	}
	if weakest >= 0 && weakestScore == 0 {
		p.zeroReplaced++
		e.deltas[weakest] = refDelta{delta: d, score: 1}
	}
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

// TestLockstepWithReference drives Berti and the slice reference with the
// same events and compares the requests after every call and the whole
// table, every PC's history and scored deltas, every 1,024 calls and at the
// end.
func TestLockstepWithReference(t *testing.T) {
	p, ref := New(), &refBerti{}
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
		for k := range ref.table {
			r, e := &ref.table[k], &p.table[k]
			if e.valid != r.valid || e.tag != r.tag || int(e.histN) != r.histN || int(e.seen) != r.seen ||
				int(e.deltaN) != len(r.deltas) || (e.st == nil) != (r.hist == nil) {
				t.Fatalf("event %d: entry %d is %+v, reference %+v", i, k, *e, *r)
			}
			if e.st == nil {
				continue
			}
			for h := 0; h < r.histN; h++ {
				if e.st.hist[h] != r.hist[h] {
					t.Fatalf("event %d: entry %d history %d is %+v, reference %+v", i, k, h, e.st.hist[h], r.hist[h])
				}
			}
			for d, rd := range r.deltas {
				if e.st.delta[d] != rd.delta || int(e.st.score[d]) != rd.score {
					t.Fatalf("event %d: entry %d delta %d is {%d %d}, reference %+v", i, k, d, e.st.delta[d], e.st.score[d], rd)
				}
			}
		}
	}
	t.Logf("%d block reuses, %d decays, %d zero-score deltas replaced, %d bumps at the 63 cap",
		ref.reuses, ref.decays, ref.zeroReplaced, ref.saturated)
	if ref.reuses == 0 || ref.decays == 0 || ref.zeroReplaced == 0 || ref.saturated == 0 {
		t.Fatal("the stream must reuse a displaced PC's block, decay scores, replace a zero-score delta and saturate a score")
	}
}

// TestEntrySize pins the table entry at 16 B, the per-PC block behind it
// holding the history and the deltas.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 16 {
		t.Errorf("entry is %d B, want 16", n)
	}
}

// TestTrainAllocatesNothing: once every PC of a stream has its block, Train
// allocates nothing, displacements included.
func TestTrainAllocatesNothing(t *testing.T) {
	evs := lockstepEvents(20_000)
	p := New()
	out := make([]prefetch.Request, 0, maxIssue)
	train := func() {
		for _, ev := range evs {
			out = p.Train(ev, out[:0])
		}
	}
	train()
	if n := testing.AllocsPerRun(3, train); n != 0 {
		t.Errorf("Train allocated %.1f times over %d events", n, len(evs))
	}
}

// BenchmarkTrain trains one Berti over a fixed 16,384-event slice of the
// lockstep stream, on which it issues, cycled through.
func BenchmarkTrain(b *testing.B) {
	evs := lockstepEvents(1 << 14)
	p := New()
	out := make([]prefetch.Request, 0, maxIssue)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = p.Train(evs[i%len(evs)], out[:0])
	}
	benchOut = out
}

// benchOut keeps the benchmark's result live.
var benchOut []prefetch.Request
