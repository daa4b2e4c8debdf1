package triage

import (
	"math/rand"
	"testing"

	"streamline/internal/mem"
)

// mapLUT is the reference for lut: the same round-robin allocation with a
// Go map as the reverse index. Recycling an index deletes the map key of
// the region it held, so before the first lap it deletes the zero region.
type mapLUT struct {
	regions []uint64
	byReg   map[uint64]int
	next    int
}

func (l *mapLUT) encode(target mem.Line) int {
	region := uint64(target) >> 11
	if idx, ok := l.byReg[region]; ok {
		return idx
	}
	idx := l.next
	l.next = (l.next + 1) % len(l.regions)
	delete(l.byReg, l.regions[idx])
	l.regions[idx] = region
	l.byReg[region] = idx
	return idx
}

// TestLUTMatchesMapReference drives lut and the map reference with one
// encode stream that recycles every index many times — a hot region set
// that mostly hits, a cold one that mostly misses, and the zero region —
// and requires the same index for every encode and the same table after it.
func TestLUTMatchesMapReference(t *testing.T) {
	for _, size := range []int{8, 256, 1024} {
		l := newLUT(size)
		ref := &mapLUT{regions: make([]uint64, size), byReg: map[uint64]int{}}
		rng := rand.New(rand.NewSource(int64(size)))
		hot := make([]uint64, size/2)
		for i := range hot {
			hot[i] = rng.Uint64() >> 20
		}
		const encodes = 200_000
		misses := 0
		for n := 0; n < encodes; n++ {
			var region uint64
			switch r := rng.Intn(100); {
			case r < 60:
				region = hot[rng.Intn(len(hot))]
			case r < 62:
				region = 0
			default:
				region = rng.Uint64() >> 20
			}
			target := mem.Line(region<<11 | uint64(rng.Intn(1<<11)))
			next := ref.next
			got, want := l.encode(target), ref.encode(target)
			if got != want {
				t.Fatalf("size %d, encode %d of region %#x: index %d, reference %d", size, n, region, got, want)
			}
			if ref.next != next {
				misses++
			}
		}
		for i, r := range ref.regions {
			if l.regions[i] != r {
				t.Fatalf("size %d: index %d holds region %#x, reference %#x", size, i, l.regions[i], r)
			}
		}
		mapped := 0
		for _, idx := range l.byReg {
			if idx != noIndex {
				mapped++
				if ref.byReg[l.regions[idx]] != int(idx) {
					t.Fatalf("size %d: index %d mapped for region %#x, reference maps it to %d",
						size, idx, l.regions[idx], ref.byReg[l.regions[idx]])
				}
			}
		}
		if mapped != len(ref.byReg) {
			t.Errorf("size %d: %d regions mapped, reference %d", size, mapped, len(ref.byReg))
		}
		if laps := misses / size; laps < 5 {
			t.Errorf("size %d: %d misses recycle each index only %d times", size, misses, laps)
		}
	}
}
