package prefetch

import (
	"math/rand"
	"testing"
	"unsafe"

	"streamline/internal/mem"
)

// issuedRing is the window Issued replaced, one copy of which each temporal
// prefetcher carried: 64 slots overwritten in turn and scanned in full.
type issuedRing struct {
	ring [64]mem.Line
	next int
}

func (r *issuedRing) has(l mem.Line) bool {
	for i := range r.ring {
		if r.ring[i] == l {
			return true
		}
	}
	return false
}

func (r *issuedRing) mark(l mem.Line) {
	r.ring[r.next] = l
	r.next = (r.next + 1) % len(r.ring)
}

// oneBucket returns n distinct lines of a single hash bucket, the worst case
// for the index: every probe walks one chain holding the whole window.
func oneBucket(n int) []mem.Line {
	out := make([]mem.Line, 0, n)
	for l := mem.Line(1); len(out) < n; l++ {
		if issuedBucket(l) == issuedBucket(1) {
			out = append(out, l)
		}
	}
	return out
}

// lockstep applies one operation to both windows: a probe of l (compared), a
// mark, a double mark, or a reset to the zero value, as ResetIssued does when
// a PC claims a prefetcher's training-unit entry.
func lockstep(t testing.TB, w *Issued, r *issuedRing, kind int, l mem.Line) {
	switch {
	case kind < 55:
		if got, want := w.Has(l), r.has(l); got != want {
			t.Fatalf("Has(%d) = %v after %d marks, the ring says %v", l, got, w.n, want)
		}
	case kind < 96:
		w.Mark(l)
		r.mark(l)
	case kind < 99:
		w.Mark(l)
		w.Mark(l)
		r.mark(l)
		r.mark(l)
	case kind == 99 && l%16 == 0:
		ResetIssued(w)
		*r = issuedRing{}
	}
}

// TestIssuedMatchesRing compares every probe against the scanned ring over
// address spans smaller than the window, about its size, a few times it and
// far beyond it, over lines a page apart, and over lines that all share one
// bucket.
func TestIssuedMatchesRing(t *testing.T) {
	seeds, ops := 20, 200_000
	if testing.Short() {
		seeds, ops = 4, 50_000
	}
	colliding := oneBucket(200)
	draws := map[string]func(rng *rand.Rand) mem.Line{
		"span8":     func(rng *rand.Rand) mem.Line { return mem.Line(rng.Intn(8)) },
		"span70":    func(rng *rand.Rand) mem.Line { return mem.Line(rng.Intn(70)) },
		"span200":   func(rng *rand.Rand) mem.Line { return mem.Line(rng.Intn(200)) },
		"span5000":  func(rng *rand.Rand) mem.Line { return mem.Line(rng.Intn(5000)) },
		"pages":     func(rng *rand.Rand) mem.Line { return mem.Line(rng.Intn(200)) * 64 },
		"onebucket": func(rng *rand.Rand) mem.Line { return colliding[rng.Intn(len(colliding))] },
	}
	for name, draw := range draws {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := 1; seed <= seeds; seed++ {
				rng := rand.New(rand.NewSource(int64(seed)))
				var w Issued
				var r issuedRing
				for op := 0; op < ops; op++ {
					lockstep(t, &w, &r, rng.Intn(100), draw(rng))
				}
			}
		})
	}
}

// TestIssuedZeroValue pins the quirk the prefetchers' statistics were
// recorded with: a fresh window reads line 0 as issued, and only line 0,
// until 64 marks have gone through it.
func TestIssuedZeroValue(t *testing.T) {
	var w Issued
	if !w.Has(0) {
		t.Error("fresh window: Has(0) = false, the zeroed ring held line 0 in every slot")
	}
	if w.Has(1) {
		t.Error("fresh window: Has(1) = true")
	}
	for i := 1; i <= 64; i++ {
		if !w.Has(0) {
			t.Errorf("Has(0) = false after %d marks, %d zeroed slots remained", i-1, 65-i)
		}
		w.Mark(mem.Line(i))
	}
	if w.Has(0) {
		t.Error("Has(0) = true after 64 non-zero marks")
	}
	w.Mark(0)
	if !w.Has(0) {
		t.Error("Has(0) = false right after Mark(0)")
	}
}

// TestIssuedSize guards the budget: three arms hold up to 256 windows each per
// simulation, one for every training-unit entry a PC has claimed, so the
// index may add no more than 136 B to the 520 B ring.
func TestIssuedSize(t *testing.T) {
	if got := unsafe.Sizeof(Issued{}); got > 656 {
		t.Errorf("Issued is %d B, budget 656", got)
	}
}

// FuzzIssued decodes bytes into the same operations: each pair is a kind and
// a line, drawn from a small span, a page-strided one or a single bucket.
func FuzzIssued(f *testing.F) {
	f.Add([]byte{60, 0, 0, 0, 60, 64, 0, 64, 99, 16, 0, 0})
	f.Add([]byte{97, 5, 0, 5, 60, 133, 0, 133, 60, 201, 0, 201})
	colliding := oneBucket(64)
	f.Fuzz(func(t *testing.T, data []byte) {
		var w Issued
		var r issuedRing
		for i := 0; i+1 < len(data); i += 2 {
			l := mem.Line(data[i+1] & 63)
			switch data[i+1] >> 6 {
			case 1:
				l *= 64
			case 2:
				l = colliding[l]
			case 3:
				l += 60 // straddles the window's length with case 0
			}
			lockstep(t, &w, &r, int(data[i])%100, l)
		}
	})
}
