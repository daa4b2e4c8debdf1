package replacement

import (
	"math/rand"
	"testing"
)

// stampLRU is the per-way timestamp LRU the packed-order one replaced, kept
// as the reference: a touch stamps the way with a running clock, an eviction
// zeroes the stamp, and the victim is the lowest stamp at or above lo, lowest
// index first.
type stampLRU struct {
	ways  int
	stamp []uint64
	clock uint64
}

func (p *stampLRU) touch(set, way int) {
	p.clock++
	p.stamp[set*p.ways+way] = p.clock
}

func (p *stampLRU) evict(set, way int) { p.stamp[set*p.ways+way] = 0 }

func (p *stampLRU) victim(set, lo int) int {
	stamps := p.stamp[set*p.ways : (set+1)*p.ways]
	best := lo
	for w := lo + 1; w < len(stamps); w++ {
		if stamps[w] < stamps[best] {
			best = w
		}
	}
	return best
}

// TestLRUMatchesStampReference runs the two in lockstep for every
// associativity the packed order holds and every floor, over call sequences
// the cache never issues as well as those it does: evictions with no refill,
// repeated evictions, touches of evicted ways, victim queries on sets that
// are not full.
func TestLRUMatchesStampReference(t *testing.T) {
	const sets = 4
	for ways := 1; ways <= 16; ways++ {
		p := NewLRU(sets, ways)
		ref := &stampLRU{ways: ways, stamp: make([]uint64, sets*ways)}
		rng := rand.New(rand.NewSource(int64(ways)))
		for op := 0; op < 40_000; op++ {
			set, way := rng.Intn(sets), rng.Intn(ways)
			switch r := rng.Intn(100); {
			case r < 30:
				p.Touch(set, way)
				ref.touch(set, way)
			case r < 40:
				// Re-touch the most recent way: the early-return path.
				way = 0
				for w := 1; w < ways; w++ {
					if ref.stamp[set*ways+w] > ref.stamp[set*ways+way] {
						way = w
					}
				}
				p.Touch(set, way)
				ref.touch(set, way)
			case r < 55:
				p.Touch(set, way)
				ref.touch(set, way)
			case r < 70:
				p.Evict(set, way)
				ref.evict(set, way)
			case r < 80:
				lo := rng.Intn(ways)
				v := p.Victim(set, lo)
				if want := ref.victim(set, lo); v != want {
					t.Fatalf("%d ways, op %d: Victim(%d, %d) = %d, stamp LRU says %d", ways, op, set, lo, v, want)
				}
				p.Evict(set, v)
				ref.evict(set, v)
				p.Touch(set, v)
				ref.touch(set, v)
			}
			for lo := 0; lo < ways; lo++ {
				if got, want := p.Victim(set, lo), ref.victim(set, lo); got != want {
					t.Fatalf("%d ways, op %d: Victim(%d, %d) = %d, stamp LRU says %d", ways, op, set, lo, got, want)
				}
			}
		}
	}
}

func TestNewLRURejectsMoreThan16Ways(t *testing.T) {
	NewLRU(2, 16)
	defer func() {
		if recover() == nil {
			t.Error("NewLRU(2, 17) did not panic: a 17th way does not fit the packed order")
		}
	}()
	NewLRU(2, 17)
}
