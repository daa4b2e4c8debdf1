package meta

import (
	"math/rand"
	"testing"
)

// refLRU is the entry-LRU that per-set 16-bit stamps replaced: one uint64
// clock for the whole store, which never wraps.
type refLRU struct {
	slots int
	stamp []uint64
	clock uint64
}

func (p *refLRU) touch(set, slot int) {
	p.clock++
	p.stamp[set*p.slots+slot] = p.clock
}

func (p *refLRU) victim(set, lo, hi int) int {
	stamps := p.stamp[set*p.slots : set*p.slots+hi]
	best := lo
	for s := lo + 1; s < hi; s++ {
		if stamps[s] < stamps[best] {
			best = s
		}
	}
	return best
}

// TestEntryLRUMatchesStampReference runs entry-LRU in lockstep with refLRU
// the way a store drives it — touches of valid slots, fills of free ones,
// victims among full candidate ranges, evictions — over whole-set ranges (a
// tagged store) and one-block ranges (an untagged store's way), until every
// set has renumbered its stamps at least three times. Every victim must be
// the reference's.
func TestEntryLRUMatchesStampReference(t *testing.T) {
	const sets, ways, epb = 3, 8, 16 // 128 slots per set: 8 ways of 16 entries
	const slots = ways * epb
	p := NewEntryLRU(sets, slots).(*entryLRU)
	ref := &refLRU{slots: slots, stamp: make([]uint64, sets*slots)}
	valid := make([]bool, sets*slots)
	renumbered := make([]int, sets)
	rng := rand.New(rand.NewSource(7))
	var a EntryAccess

	step := func(set, slot int, fill bool) {
		before := p.clock[set]
		if fill {
			p.Fill(set, slot, a)
		} else {
			p.Touch(set, slot, a)
		}
		ref.touch(set, slot)
		valid[set*slots+slot] = true
		if p.clock[set] <= before {
			renumbered[set]++
		}
	}
	done := func() bool {
		for _, n := range renumbered {
			if n < 3 {
				return false
			}
		}
		return true
	}
	for op := 0; !done(); op++ {
		if op > 5_000_000 {
			t.Fatalf("no third renumbering in every set after %d operations: %v", op, renumbered)
		}
		set := rng.Intn(sets)
		lo, hi := 0, slots
		if rng.Intn(2) == 0 {
			w := rng.Intn(ways)
			lo, hi = w*epb, (w+1)*epb
		}
		slot := lo + rng.Intn(hi-lo)
		switch r := rng.Intn(100); {
		case r < 2:
			p.Evict(set, slot)
			ref.stamp[set*slots+slot] = 0
			valid[set*slots+slot] = false
		case r < 50 && valid[set*slots+slot]:
			step(set, slot, false)
		default:
			free := -1
			for i := lo; i < hi; i++ {
				if !valid[set*slots+i] {
					free = i
					break
				}
			}
			if free < 0 {
				v := p.Victim(set, lo, hi, a)
				if want := ref.victim(set, lo, hi); v != want {
					t.Fatalf("op %d: set %d [%d,%d) victim %d, reference %d", op, set, lo, hi, v, want)
				}
				p.Evict(set, v)
				ref.stamp[set*slots+v] = 0
				free = v
			}
			step(set, free, true)
		}
	}

	// A renumbering works in place: a batch of touches long enough to wrap
	// one set's clock allocates nothing.
	before := renumbered[0]
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1<<16; i++ {
			step(0, i%slots, false)
		}
	})
	if allocs != 0 || renumbered[0] == before {
		t.Errorf("%.0f allocs over %d renumberings, want 0 over at least one", allocs, renumbered[0]-before)
	}
}

// TestRenumberKeepsOrder checks renumber on a row with gaps, invalid slots
// and the extreme stamps.
func TestRenumberKeepsOrder(t *testing.T) {
	row := []uint16{0, 65535, 3, 0, 40000, 1, 7}
	if m := renumber(row); m != 5 {
		t.Fatalf("renumber returned %d, want 5", m)
	}
	want := []uint16{0, 5, 2, 0, 4, 1, 3}
	for i := range row {
		if row[i] != want[i] {
			t.Fatalf("renumbered row %v, want %v", row, want)
		}
	}
}
