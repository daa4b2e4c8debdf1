package cache

import (
	"testing"
	"testing/quick"

	"streamline/internal/audit"
	"streamline/internal/mem"
)

// Property-based tests over the cache's replacement/eviction machinery:
// invariants that must hold for every geometry under arbitrary interleavings
// of lookups, fills, reservations, and MSHR traffic (mirroring the metadata
// store's property suite).

// anyGeometry derives a random but valid cache configuration.
func anyGeometry(setSel, waySel uint8) Config {
	return Config{
		Name:    "prop",
		Sets:    4 << (setSel % 5), // 4..64, power of two
		Ways:    1 + int(waySel%8), // 1..8
		Latency: 10,
		MSHRs:   4,
		Ports:   1,
	}
}

// driveOps replays an encoded operation sequence against c. Each op word
// selects an action from its low bits and a line from its high bits; MSHR
// reservations are always paired with completions, as every access path in
// the simulator does.
func driveOps(c *Cache, ops []uint16) {
	now := uint64(0)
	for _, op := range ops {
		now += uint64(op%7) + 1
		l := mem.Line(op >> 4)
		acc := mem.Access{Addr: mem.AddrOf(l), Kind: mem.Load}
		switch op % 8 {
		case 0, 1:
			c.Lookup(now, acc)
		case 2:
			if !c.Lookup(now, acc).Hit {
				c.Fill(acc, now+50, SrcDemand)
			}
		case 3:
			c.Fill(acc, now+50, SrcL2)
		case 4:
			acc.Kind = mem.Store
			if !c.Lookup(now, acc).Hit {
				c.Fill(acc, now+50, SrcDemand)
			}
		case 5:
			c.MarkDirty(l)
		case 6:
			c.Reserve(c.SetOf(l), int(op>>4)%(c.cfg.Ways+1))
		case 7:
			slot, delay := c.MSHRReserve(now)
			c.MSHRComplete(slot, now+delay+20)
		}
	}
}

func TestPropertyOccupancyAndAccounting(t *testing.T) {
	f := func(setSel, waySel uint8, ops []uint16) bool {
		c := New(anyGeometry(setSel, waySel))
		driveOps(c, ops)

		// Occupancy never exceeds the capacity left to data.
		capacity := 0
		for s := 0; s < c.Sets(); s++ {
			capacity += c.DataWays(s)
		}
		if c.OccupiedLines() > capacity {
			t.Logf("occupied %d > data capacity %d", c.OccupiedLines(), capacity)
			return false
		}

		// Demand accounting: every access is exactly one hit or one miss.
		if c.Stats.DemandHits+c.Stats.DemandMisses != c.Stats.DemandAccesses {
			t.Logf("hits %d + misses %d != accesses %d",
				c.Stats.DemandHits, c.Stats.DemandMisses, c.Stats.DemandAccesses)
			return false
		}

		// The audit's full sweep agrees: no violation under any sequence.
		a := audit.New(0)
		c.AuditScan(a, 0)
		if a.Total() != 0 {
			for _, v := range a.Violations() {
				t.Log(v)
			}
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyFillThenProbe(t *testing.T) {
	f := func(setSel, waySel uint8, raw uint16, ops []uint16) bool {
		c := New(anyGeometry(setSel, waySel))
		driveOps(c, ops)
		l := mem.Line(raw)
		set := c.SetOf(l)
		c.Fill(mem.Access{Addr: mem.AddrOf(l), Kind: mem.Load}, 100, SrcDemand)
		if c.DataWays(set) == 0 {
			// Fully reserved set: the fill is dropped by design.
			return !c.Probe(l)
		}
		return c.Probe(l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyLookupResidentEquivalence: LookupResident must be
// decision-identical to the Probe-then-Lookup sequence it replaced on the
// promote path — same hit/miss answer, same LookupResult, same statistics,
// and the same resident-line state afterwards — for every geometry, cache
// history, and randomized probe stream. Two identically-driven caches are
// advanced in lockstep, one per protocol.
func TestPropertyLookupResidentEquivalence(t *testing.T) {
	f := func(setSel, waySel uint8, ops []uint16, probes []uint16) bool {
		one := New(anyGeometry(setSel, waySel))
		two := New(anyGeometry(setSel, waySel))
		driveOps(one, ops)
		driveOps(two, ops)

		now := uint64(0)
		for i, p := range probes {
			now += uint64(p%7) + 1
			l := mem.Line(p >> 4)
			kind := mem.Load
			switch p % 3 {
			case 1:
				kind = mem.Store
			case 2:
				kind = mem.Prefetch
			}
			acc := mem.Access{Addr: mem.AddrOf(l), Kind: kind}

			r1, ok1 := one.LookupResident(now, acc)
			var r2 LookupResult
			ok2 := two.Probe(l)
			if ok2 {
				r2 = two.Lookup(now, acc)
			}
			if ok1 != ok2 || r1 != r2 {
				t.Logf("probe %d line %#x kind %v: LookupResident (%+v,%v) vs Probe+Lookup (%+v,%v)",
					i, uint64(l), kind, r1, ok1, r2, ok2)
				return false
			}
			if one.Stats != two.Stats {
				t.Logf("probe %d: stats diverged\nresident %+v\nprobe+lookup %+v",
					i, one.Stats, two.Stats)
				return false
			}
			// Interleave a fill on both sides so later probes see evolving
			// residency, not just the driveOps endstate.
			if p%5 == 0 {
				fl := mem.Line(p >> 6)
				fa := mem.Access{Addr: mem.AddrOf(fl), Kind: mem.Load}
				one.Fill(fa, now+50, SrcL2)
				two.Fill(fa, now+50, SrcL2)
			}
		}

		var s1, s2 []LineState
		one.ForEachLineState(func(ls LineState) { s1 = append(s1, ls) })
		two.ForEachLineState(func(ls LineState) { s2 = append(s2, ls) })
		if len(s1) != len(s2) {
			t.Logf("line counts diverged: %d vs %d", len(s1), len(s2))
			return false
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Logf("line state %d diverged: %+v vs %+v", i, s1[i], s2[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyReserveFlushesRegion(t *testing.T) {
	f := func(setSel, waySel uint8, ops []uint16, set uint8, ways uint8) bool {
		c := New(anyGeometry(setSel, waySel))
		driveOps(c, ops)
		s := int(set) % c.Sets()
		w := int(ways) % (c.Ways() + 1)
		before := c.OccupiedLines()
		flushed, dirty := c.Reserve(s, w)
		if dirty > flushed {
			return false
		}
		if c.ReservedWays(s) != w {
			return false
		}
		// Reserved region holds no valid data lines.
		for way := 0; way < w; way++ {
			if c.lines[s*c.Ways()+way].tag != noLine {
				return false
			}
		}
		// Flushes are the only occupancy change a Reserve makes.
		return c.OccupiedLines() == before-flushed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
