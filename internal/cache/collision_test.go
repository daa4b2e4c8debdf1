package cache_test

import (
	"fmt"
	"math/rand"
	"testing"

	"streamline/internal/audit"
	"streamline/internal/cache"
	"streamline/internal/check"
	"streamline/internal/mem"
)

// collidingLines returns n lines of set s of a sets-set cache that all share
// one row fingerprint, found by brute force over the fingerprint function.
func collidingLines(sets, s, n int) []mem.Line {
	byFP := map[uint64][]mem.Line{}
	for l := mem.Line(s); ; l += mem.Line(sets) {
		fp := cache.Fingerprint(l)
		if byFP[fp] = append(byFP[fp], l); len(byFP[fp]) == n {
			return byFP[fp]
		}
	}
}

// TestDifferentialFingerprintCollisions replays random streams over lines
// that share one set and one fingerprint through check.Shadow: every valid
// way of the set matches every probe's fingerprint, so hit or miss rests on
// the tag compare alone, and the reserve churn moves the reserved prefix
// across row words.
func TestDifferentialFingerprintCollisions(t *testing.T) {
	const sets, set = 16, 5
	for _, tc := range []struct {
		ways, pool, maxReserve int
	}{
		{ways: 8, pool: 12, maxReserve: 8},
		{ways: 12, pool: 16, maxReserve: 12}, // a padded row, reserved whole
		{ways: 16, pool: 20, maxReserve: 16},
	} {
		t.Run(fmt.Sprintf("%d-way", tc.ways), func(t *testing.T) {
			cfg := cache.Config{Name: "collide", Sets: sets, Ways: tc.ways, Latency: 10}
			sh := check.NewShadow(cfg)
			lines := collidingLines(sets, set, tc.pool)
			rng := rand.New(rand.NewSource(int64(tc.ways)))
			var now uint64
			for i := 0; i < 20000; i++ {
				now += uint64(rng.Intn(3))
				addr := mem.AddrOf(lines[rng.Intn(len(lines))])
				switch rng.Intn(8) {
				case 0:
					sh.Lookup(now, mem.Access{PC: 0x400400, Addr: addr, Kind: mem.Load})
				case 1:
					sh.Lookup(now, mem.Access{PC: 0x400404, Addr: addr, Kind: mem.Store})
				case 2:
					sh.LookupResident(now, mem.Access{PC: 0x400408, Addr: addr, Kind: mem.Load})
				case 3:
					sh.Probe(mem.LineOf(addr))
				case 4:
					sh.Fill(mem.Access{Addr: addr, Kind: mem.Prefetch}, now+uint64(rng.Intn(50)), cache.SrcL2)
				case 5:
					sh.Fill(mem.Access{PC: 0x40040c, Addr: addr, Kind: mem.Load}, now+20, cache.SrcDemand)
				case 6:
					sh.MarkDirty(mem.LineOf(addr))
				case 7:
					if rng.Intn(4) == 0 {
						sh.Reserve(set, rng.Intn(tc.maxReserve+1))
					}
				}
				if i%64 == 0 {
					sh.CheckState()
				}
			}
			// Reserve the most the stream may, then fill into what is left.
			sh.Reserve(set, tc.maxReserve)
			sh.Fill(mem.Access{Addr: mem.AddrOf(lines[0]), Kind: mem.Load}, now, cache.SrcDemand)
			sh.Probe(lines[0])
			sh.CheckState()
			for _, m := range sh.Mismatches() {
				t.Errorf("divergence: %s", m)
			}
			a := audit.New(0)
			sh.Real.AuditScan(a, now)
			for _, v := range a.Violations() {
				t.Errorf("audit: %v", v)
			}
			if sh.Real.Stats.DemandHits == 0 || sh.Real.Stats.DemandMisses == 0 {
				t.Errorf("stream exercised only one outcome: %+v", sh.Real.Stats)
			}
		})
	}
}
