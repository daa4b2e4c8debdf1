package cpu

import (
	"fmt"
	"math/rand"
	"testing"
)

// refCore is the core model as it was written before the ring indices
// advanced by compare-and-wrap and Advance divided by reciprocal: every index
// is reduced with %, the width divides with /. It shares no code with Core and
// exists only so the lockstep test below can show the two agree bit for bit.
type refCore struct {
	width, window uint64
	fetchFP       uint64
	stall         uint64
	rob           []robEntry
	head, count   int
	instrs        uint64
	lastMemDone   uint64
	maxDone       uint64
}

func newRefCore(cfg Config) *refCore {
	return &refCore{width: uint64(cfg.Width), window: uint64(cfg.ROB), rob: make([]robEntry, cfg.ROB/4+1)}
}

func (c *refCore) now() uint64 { return c.fetchFP/256 + c.stall }

func (c *refCore) advance(n uint64) {
	c.instrs += n
	c.fetchFP += n * 256 / c.width
}

func (c *refCore) beginMem(dependsOnPrev bool) uint64 {
	for c.count > 0 {
		e := c.rob[c.head]
		if c.instrs-e.instrIdx < c.window && c.count < len(c.rob) {
			break
		}
		if now := c.now(); e.done > now {
			c.stall += e.done - now
		}
		c.head = (c.head + 1) % len(c.rob)
		c.count--
	}
	t := c.now()
	if dependsOnPrev && c.lastMemDone > t {
		t = c.lastMemDone
	}
	return t
}

func (c *refCore) endMem(done uint64, isLoad bool) {
	c.rob[(c.head+c.count)%len(c.rob)] = robEntry{done: done, instrIdx: c.instrs}
	if c.count < len(c.rob) {
		c.count++
	} else {
		c.head = (c.head + 1) % len(c.rob)
	}
	if isLoad {
		c.lastMemDone = done
	}
	if done > c.maxDone {
		c.maxDone = done
	}
}

func (c *refCore) finish() uint64 {
	if n := c.now(); n > c.maxDone {
		return n
	}
	return c.maxDone
}

// TestCoreMatchesDivisionReference drives Core and refCore in lockstep over
// random record streams and compares every issue cycle, the clock and the
// drain time. The operations are those of sim.step — Advance(1+NonMem),
// BeginMem, EndMem — with latencies mixed like a hierarchy's (mostly L1 hits,
// some misses long enough to fill the window), plus now and then an Advance
// wider than a record's and an EndMem with no BeginMem before it, which only
// the exported API can produce.
func TestCoreMatchesDivisionReference(t *testing.T) {
	seeds, ops := 20, 100_000
	if testing.Short() {
		seeds = 2
	}
	for width := 1; width <= 8; width++ {
		for _, rob := range []int{1, 4, 7, 352, 353} {
			cfg := Config{Width: width, ROB: rob}
			t.Run(fmt.Sprintf("w%d/rob%d", width, rob), func(t *testing.T) {
				t.Parallel()
				for seed := 1; seed <= seeds; seed++ {
					lockstep(t, cfg, int64(seed), ops)
				}
			})
		}
	}
}

func lockstep(t *testing.T, cfg Config, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed*1000 + int64(cfg.Width)*10 + int64(cfg.ROB)))
	c, ref := New(cfg), newRefCore(cfg)
	for i := 0; i < ops; i++ {
		x := rng.Uint64() // one draw per operation, sliced into its choices
		n := 1 + x&0xff   // 1 + a uint8 NonMem
		if x>>8&0x3ff == 0 {
			n = x >> 24 // beyond any record
		}
		c.Advance(n)
		ref.advance(n)
		if x>>18&0x1ff != 0 {
			dep := x>>27&3 == 0
			got, want := c.BeginMem(dep), ref.beginMem(dep)
			if got != want {
				t.Fatalf("seed %d op %d: BeginMem(%v) = %d, reference %d", seed, i, dep, got, want)
			}
		}
		lat := uint64(5)
		switch r := x >> 29 & 127; {
		case r < 12:
			lat = 15 + x>>36&31
		case r < 20:
			lat = 150 + x>>36&2047
		}
		done, isLoad := c.Now()+lat, x>>47%3 != 0
		c.EndMem(done, isLoad)
		ref.endMem(done, isLoad)
		if c.Now() != ref.now() || c.Finish() != ref.finish() || c.Instructions() != ref.instrs {
			t.Fatalf("seed %d op %d: now %d finish %d instrs %d, reference %d %d %d", seed, i,
				c.Now(), c.Finish(), c.Instructions(), ref.now(), ref.finish(), ref.instrs)
		}
	}
	if c.stall == 0 {
		t.Errorf("seed %d: the window never filled, so the ring never wrapped under load", seed)
	}
}
