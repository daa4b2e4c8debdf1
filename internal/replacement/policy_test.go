package replacement

import (
	"math/rand"
	"testing"

	"streamline/internal/mem"
)

// simCache drives a policy through a tiny set-associative cache simulation
// and returns the hit count. It exists so policy tests measure behavior
// (hit rates on structured streams) rather than internal state.
type simCache struct {
	sets, ways int
	tags       [][]mem.Line
	valid      [][]bool
	pol        Policy
	hits, miss uint64
}

func newSimCache(sets, ways int, f Factory) *simCache {
	c := &simCache{sets: sets, ways: ways, pol: f(sets, ways)}
	c.tags = make([][]mem.Line, sets)
	c.valid = make([][]bool, sets)
	for i := range c.tags {
		c.tags[i] = make([]mem.Line, ways)
		c.valid[i] = make([]bool, ways)
	}
	return c
}

func (c *simCache) access(pc mem.PC, line mem.Line) bool {
	set := int(uint64(line) % uint64(c.sets))
	a := Access{PC: pc, Line: line}
	for w := 0; w < c.ways; w++ {
		if c.valid[set][w] && c.tags[set][w] == line {
			c.hits++
			c.pol.Hit(set, w, a)
			return true
		}
	}
	c.miss++
	way := -1
	for w := 0; w < c.ways; w++ {
		if !c.valid[set][w] {
			way = w
			break
		}
	}
	if way < 0 {
		way = c.pol.Victim(set, 0, a)
		c.pol.Evict(set, way)
	}
	c.valid[set][way] = true
	c.tags[set][way] = line
	c.pol.Fill(set, way, a)
	return false
}

func allPolicies() []string {
	return []string{"lru", "srrip", "brrip", "drrip", "ship", "hawkeye", "mockingjay"}
}

func TestVictimInRange(t *testing.T) {
	for _, name := range allPolicies() {
		f := Factories[name]
		c := newSimCache(8, 4, f)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 20000; i++ {
			c.access(mem.PC(rng.Intn(16)), mem.Line(rng.Intn(512)))
		}
		if c.hits == 0 {
			t.Errorf("%s: zero hits on a reuse-heavy stream", name)
		}
	}
}

func TestLRUEvictsOldest(t *testing.T) {
	c := newSimCache(1, 4, Factories["lru"])
	for l := mem.Line(0); l < 4; l++ {
		c.access(1, l)
	}
	c.access(1, 0) // refresh line 0
	c.access(1, 4) // evicts line 1 (oldest)
	if !c.access(1, 0) {
		t.Error("line 0 should have survived")
	}
	if c.access(1, 1) {
		t.Error("line 1 should have been evicted")
	}
}

func TestLRUHitRateOnCyclicStreamWithinCapacity(t *testing.T) {
	c := newSimCache(16, 4, Factories["lru"])
	// 64-line cyclic working set fits exactly: all accesses after the
	// first lap hit.
	for lap := 0; lap < 10; lap++ {
		for l := mem.Line(0); l < 64; l++ {
			c.access(1, l)
		}
	}
	if c.miss != 64 {
		t.Errorf("misses = %d, want 64 (cold only)", c.miss)
	}
}

// thrashStream builds the classic RRIP motivation: a small reused working
// set with interleaved scan bursts sized so that LRU evicts the hot lines
// between their touches while re-reference-aware policies keep them. Hot
// lines land 2 per set and each burst adds 3 scan lines per set (16 sets,
// 4 ways).
func thrashStream(c *simCache, laps int) (reuseHits, reuseTotal uint64) {
	scan := mem.Line(1 << 20)
	for lap := 0; lap < laps; lap++ {
		for chunk := 0; chunk < 4; chunk++ {
			// Touch the hot set twice so hot lines earn a hit (and thus a
			// near re-reference prediction) before the scan burst arrives.
			for pass := 0; pass < 2; pass++ {
				for l := mem.Line(0); l < 32; l++ {
					before := c.hits
					c.access(1, l)
					if lap > 0 || chunk > 0 || pass > 0 {
						reuseTotal++
						if c.hits > before {
							reuseHits++
						}
					}
				}
			}
			for i := 0; i < 48; i++ {
				c.access(2, scan)
				scan++
			}
		}
	}
	return
}

func TestSRRIPResistsScansBetterThanLRU(t *testing.T) {
	lru := newSimCache(16, 4, Factories["lru"])
	srrip := newSimCache(16, 4, NewSRRIP)
	lruHits, total := thrashStream(lru, 20)
	srripHits, _ := thrashStream(srrip, 20)
	if total == 0 {
		t.Fatal("no reuse accesses measured")
	}
	if srripHits <= lruHits {
		t.Errorf("SRRIP hot-set hits (%d) should exceed LRU's (%d) under scanning",
			srripHits, lruHits)
	}
}

func TestSHiPLearnsScanPC(t *testing.T) {
	// SHiP should learn that PC 2 (the scan) never reuses and insert its
	// lines at distant RRPV, protecting PC 1's hot set.
	ship := newSimCache(16, 4, NewSHiP)
	srrip := newSimCache(16, 4, NewSRRIP)
	shipHits, _ := thrashStream(ship, 30)
	srripHits, _ := thrashStream(srrip, 30)
	if shipHits < srripHits {
		t.Errorf("SHiP hot-set hits (%d) below SRRIP (%d); scan PC not learned",
			shipHits, srripHits)
	}
}

func TestHawkeyeProtectsReusedPC(t *testing.T) {
	hk := newSimCache(16, 4, NewHawkeye)
	lru := newSimCache(16, 4, Factories["lru"])
	hkHits, _ := thrashStream(hk, 30)
	lruHits, _ := thrashStream(lru, 30)
	if hkHits <= lruHits {
		t.Errorf("Hawkeye hot-set hits (%d) should beat LRU (%d) under scanning",
			hkHits, lruHits)
	}
}

func TestMockingjayResistsScans(t *testing.T) {
	mj := newSimCache(16, 4, NewMockingjay)
	lru := newSimCache(16, 4, Factories["lru"])
	mjHits, _ := thrashStream(mj, 30)
	lruHits, _ := thrashStream(lru, 30)
	if mjHits <= lruHits {
		t.Errorf("Mockingjay hot-set hits (%d) should beat LRU (%d) under scanning",
			mjHits, lruHits)
	}
}

func TestDRRIPTracksBetterComponent(t *testing.T) {
	// On the thrash stream, BRRIP > SRRIP; DRRIP should land near the
	// better of the two, and never be catastrophically worse than both.
	dr := newSimCache(64, 4, NewDRRIP)
	sr := newSimCache(64, 4, NewSRRIP)
	drHits, _ := thrashStream(dr, 30)
	srHits, _ := thrashStream(sr, 30)
	if float64(drHits) < 0.5*float64(srHits) {
		t.Errorf("DRRIP hits (%d) below half of SRRIP (%d)", drHits, srHits)
	}
}

func TestPoliciesAreDeterministic(t *testing.T) {
	for _, name := range allPolicies() {
		f := Factories[name]
		run := func() uint64 {
			c := newSimCache(8, 4, f)
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 5000; i++ {
				c.access(mem.PC(rng.Intn(8)), mem.Line(rng.Intn(256)))
			}
			return c.hits
		}
		if a, b := run(), run(); a != b {
			t.Errorf("%s: nondeterministic hit counts %d vs %d", name, a, b)
		}
	}
}
