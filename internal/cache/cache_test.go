package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"streamline/internal/mem"
)

func testConfig() Config {
	return Config{Name: "test", Sets: 16, Ways: 4, Latency: 10, MSHRs: 4, Ports: 1}
}

func loadAt(l mem.Line) mem.Access {
	return mem.Access{PC: 1, Addr: mem.AddrOf(l), Kind: mem.Load}
}

func TestMissThenHit(t *testing.T) {
	c := New(testConfig())
	a := loadAt(5)
	if r := c.Lookup(0, a); r.Hit {
		t.Fatal("cold lookup hit")
	}
	c.Fill(a, 0, SrcDemand)
	if r := c.Lookup(1, a); !r.Hit {
		t.Fatal("lookup after fill missed")
	}
	if c.Stats.DemandAccesses != 2 || c.Stats.DemandHits != 1 || c.Stats.DemandMisses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestSizeBytes(t *testing.T) {
	if got := testConfig().SizeBytes(); got != 16*4*64 {
		t.Errorf("SizeBytes = %d, want %d", got, 16*4*64)
	}
}

func TestEvictionWithinSet(t *testing.T) {
	c := New(testConfig())
	// Fill set 0 beyond associativity: lines 0, 16, 32, 48, 64 share set 0.
	for i := 0; i < 5; i++ {
		l := mem.Line(i * 16)
		a := loadAt(l)
		c.Lookup(uint64(i), a)
		v := c.Fill(a, uint64(i), SrcDemand)
		if i < 4 && v.Valid {
			t.Errorf("fill %d evicted %+v from a non-full set", i, v)
		}
		if i == 4 && !v.Valid {
			t.Error("fill into full set returned no victim")
		}
	}
	if c.Stats.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats.Evictions)
	}
}

func TestDirtyVictimProducesWriteback(t *testing.T) {
	c := New(testConfig())
	st := mem.Access{PC: 1, Addr: mem.AddrOf(0), Kind: mem.Store}
	c.Fill(st, 0, SrcDemand)
	for i := 1; i <= 4; i++ {
		a := loadAt(mem.Line(i * 16))
		c.Fill(a, 0, SrcDemand)
	}
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
}

func TestStoreHitMarksDirty(t *testing.T) {
	c := New(testConfig())
	a := loadAt(3)
	c.Fill(a, 0, SrcDemand)
	st := mem.Access{PC: 1, Addr: mem.AddrOf(3), Kind: mem.Store}
	if r := c.Lookup(0, st); !r.Hit {
		t.Fatal("store missed a resident line")
	}
	// Evict it (same set: lines 3+16i) and confirm the writeback.
	for i := 1; i <= 4; i++ {
		c.Fill(loadAt(mem.Line(3+i*16)), 0, SrcDemand)
	}
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
}

func TestPrefetchCoverageAccounting(t *testing.T) {
	c := New(testConfig())
	pf := mem.Access{PC: 1, Addr: mem.AddrOf(7), Kind: mem.Prefetch}
	c.Fill(pf, 0, SrcL2)
	if c.Stats.PrefetchFills != 1 {
		t.Fatalf("PrefetchFills = %d", c.Stats.PrefetchFills)
	}
	r := c.Lookup(5, loadAt(7))
	if !r.Hit || !r.WasPrefetched {
		t.Fatalf("demand on prefetched line: %+v", r)
	}
	if c.Stats.UsefulPrefetches != 1 {
		t.Errorf("UsefulPrefetches = %d", c.Stats.UsefulPrefetches)
	}
	// Second demand hit is no longer "prefetched".
	if r := c.Lookup(6, loadAt(7)); r.WasPrefetched {
		t.Error("prefetch bit not cleared after first demand hit")
	}
}

func TestUnusedPrefetchCounted(t *testing.T) {
	c := New(testConfig())
	pf := mem.Access{PC: 1, Addr: mem.AddrOf(16), Kind: mem.Prefetch}
	c.Fill(pf, 0, SrcL2)
	for i := 0; i < 5; i++ {
		if i == 1 {
			continue // skip the prefetched line's slot aliasing trick
		}
		c.Fill(loadAt(mem.Line(i*16+32)), 0, SrcDemand)
	}
	// Set 0 holds lines 16(pf),32,64,96,128 -> one eviction occurred.
	if c.Stats.UnusedPrefetches == 0 {
		t.Error("evicted unused prefetch not counted")
	}
}

func TestLatePrefetchWait(t *testing.T) {
	c := New(testConfig())
	pf := mem.Access{PC: 1, Addr: mem.AddrOf(9), Kind: mem.Prefetch}
	c.Fill(pf, 100, SrcL2) // fill completes at cycle 100
	r := c.Lookup(40, loadAt(9))
	if !r.Hit {
		t.Fatal("missed in-flight line")
	}
	if r.ExtraWait != 60 {
		t.Errorf("ExtraWait = %d, want 60", r.ExtraWait)
	}
	if c.Stats.LatePrefetches != 1 {
		t.Errorf("LatePrefetches = %d, want 1", c.Stats.LatePrefetches)
	}
	// After the fill completes there is no extra wait.
	if r := c.Lookup(200, loadAt(9)); r.ExtraWait != 0 {
		t.Errorf("ExtraWait after completion = %d", r.ExtraWait)
	}
}

func TestPortContention(t *testing.T) {
	c := New(testConfig()) // 1 port: one bucket absorbs 64 accesses
	for i := 0; i < 64; i++ {
		if d := c.PortDelay(100, false); d != 0 {
			t.Fatalf("access %d in burst delayed %d", i, d)
		}
	}
	// The 65th same-bucket access spills.
	if d := c.PortDelay(100, false); d == 0 {
		t.Error("bucket overflow not delayed")
	}
	// Far in the future the port is idle again.
	if d := c.PortDelay(10_000, false); d != 0 {
		t.Errorf("later access delayed %d", d)
	}
}

func TestDemandPriorityNeverDelayed(t *testing.T) {
	c := New(testConfig())
	for i := 0; i < 200; i++ {
		c.PortDelay(100, false)
	}
	if d := c.PortDelay(100, true); d != 0 {
		t.Errorf("demand access delayed %d behind prefetch traffic", d)
	}
}

func TestTwoPortsDoubleRate(t *testing.T) {
	cfg := testConfig()
	cfg.Ports = 2
	c := New(cfg)
	for i := 0; i < 128; i++ {
		if d := c.PortDelay(100, false); d != 0 {
			t.Fatalf("access %d in burst delayed %d", i, d)
		}
	}
	if d := c.PortDelay(100, false); d == 0 {
		t.Error("129th same-cycle access not delayed")
	}
}

func TestPortDelayToleratesOutOfOrderTimestamps(t *testing.T) {
	// Accesses stamped far in the future must not stall a burst of
	// earlier-stamped accesses (prefetch chains produce such patterns).
	c := New(testConfig())
	for i := 0; i < 100; i++ {
		c.PortDelay(100_000, false)
	}
	total := uint64(0)
	for i := 0; i < 15; i++ {
		total += c.PortDelay(500, false)
	}
	if total != 0 {
		t.Errorf("earlier-stamped burst delayed %d cycles by future outliers", total)
	}
}

func TestMSHROccupancy(t *testing.T) {
	c := New(testConfig()) // 4 MSHRs
	for i := 0; i < 4; i++ {
		if d := c.MSHRDelay(0, 100); d != 0 {
			t.Fatalf("miss %d delayed %d with free MSHRs", i, d)
		}
	}
	// Fifth concurrent miss waits for the oldest (ready at 100).
	if d := c.MSHRDelay(0, 100); d != 100 {
		t.Errorf("5th miss delayed %d, want 100", d)
	}
}

func TestReserveFlushesData(t *testing.T) {
	c := New(testConfig())
	// Fill all 4 ways of set 0, one dirty.
	c.Fill(mem.Access{PC: 1, Addr: mem.AddrOf(0), Kind: mem.Store}, 0, SrcDemand)
	for i := 1; i < 4; i++ {
		c.Fill(loadAt(mem.Line(i*16)), 0, SrcDemand)
	}
	flushed, dirty := c.Reserve(0, 2)
	if flushed != 2 {
		t.Errorf("flushed = %d, want 2", flushed)
	}
	if dirty != 1 {
		t.Errorf("dirty = %d, want 1", dirty)
	}
	if c.DataWays(0) != 2 {
		t.Errorf("DataWays = %d, want 2", c.DataWays(0))
	}
	// Lines in the reserved region are gone; later ways survive.
	if c.Probe(0) {
		t.Error("line 0 survived reservation of its way")
	}
	if !c.Probe(32) && !c.Probe(48) {
		t.Error("no data lines survived partial reservation")
	}
	// Shrinking the reservation frees the ways again without flushing.
	if f, _ := c.Reserve(0, 0); f != 0 {
		t.Errorf("unreserving flushed %d lines", f)
	}
	if c.DataWays(0) != 4 {
		t.Errorf("DataWays = %d, want 4", c.DataWays(0))
	}
}

func TestFullyReservedSetRefusesFills(t *testing.T) {
	c := New(testConfig())
	c.Reserve(0, 4)
	v := c.Fill(loadAt(0), 0, SrcDemand)
	if v.Valid {
		t.Error("fill into fully reserved set produced a victim")
	}
	if c.Probe(0) {
		t.Error("line cached in a fully reserved set")
	}
}

func TestLookupSkipsReservedWays(t *testing.T) {
	c := New(testConfig())
	c.Fill(loadAt(0), 0, SrcDemand) // lands in way 0 (first free)
	c.Reserve(0, 1)                 // way 0 now reserved; line flushed
	if r := c.Lookup(0, loadAt(0)); r.Hit {
		t.Error("hit a line in a reserved way")
	}
}

func TestMetaCounting(t *testing.T) {
	c := New(testConfig())
	c.CountMeta(mem.MetaRead)
	c.CountMeta(mem.MetaRead)
	c.CountMeta(mem.MetaWrite)
	if c.Stats.MetaReads != 2 || c.Stats.MetaWrites != 1 {
		t.Errorf("meta stats = %d/%d", c.Stats.MetaReads, c.Stats.MetaWrites)
	}
}

func TestProbeDoesNotTouchState(t *testing.T) {
	c := New(testConfig())
	c.Fill(loadAt(1), 0, SrcDemand)
	before := c.Stats
	if !c.Probe(1) || c.Probe(2) {
		t.Error("probe results wrong")
	}
	if c.Stats != before {
		t.Error("Probe changed stats")
	}
}

func TestFillRefreshExistingLine(t *testing.T) {
	c := New(testConfig())
	a := loadAt(4)
	c.Fill(a, 0, SrcDemand)
	v := c.Fill(a, 0, SrcDemand) // re-fill same line
	if v.Valid {
		t.Error("re-fill produced a victim")
	}
	if c.OccupiedLines() != 1 {
		t.Errorf("occupied = %d, want 1", c.OccupiedLines())
	}
}

func prefetchAt(l mem.Line) mem.Access {
	return mem.Access{Addr: mem.AddrOf(l), Kind: mem.Prefetch}
}

func TestFillRefreshPreservesDirty(t *testing.T) {
	c := New(testConfig())
	st := mem.Access{PC: 1, Addr: mem.AddrOf(4), Kind: mem.Store}
	c.Fill(st, 0, SrcDemand)
	// A racing prefetch fill for the same line must not clear the dirty
	// bit: the pending writeback would be lost.
	c.Fill(prefetchAt(4), 0, SrcL1)
	// Evict the line by filling the set beyond associativity.
	var v Victim
	for i := 1; i <= 4; i++ {
		a := loadAt(mem.Line(4 + i*16))
		if w := c.Fill(a, 0, SrcDemand); w.Valid {
			v = w
		}
	}
	if !v.Valid || v.Line != 4 {
		t.Fatalf("victim = %+v, want line 4", v)
	}
	if !v.Dirty {
		t.Error("refresh dropped the dirty bit: victim not dirty")
	}
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
}

func TestFillRefreshAttribution(t *testing.T) {
	c := New(testConfig())
	pf := prefetchAt(4)

	// A prefetch refreshing a demand-owned line is not a new fill: no
	// PrefetchFills/Sources credit, and the line stays demand-owned.
	c.Fill(loadAt(4), 0, SrcDemand)
	c.Fill(pf, 0, SrcL1)
	if c.Stats.PrefetchFills != 0 || c.Stats.Sources[SrcL1].Fills != 0 {
		t.Errorf("refresh counted as fill: PrefetchFills=%d Sources=%d",
			c.Stats.PrefetchFills, c.Stats.Sources[SrcL1].Fills)
	}
	if r := c.Lookup(1, loadAt(4)); r.WasPrefetched {
		t.Error("refresh re-marked a demand-owned line as prefetched")
	}

	// A prefetch refreshing a prefetch-owned line keeps a single fill's
	// worth of attribution: one fill, and at most one useful outcome.
	c.Fill(prefetchAt(20), 0, SrcL1)
	c.Fill(prefetchAt(20), 0, SrcL1)
	if c.Stats.PrefetchFills != 1 || c.Stats.Sources[SrcL1].Fills != 1 {
		t.Errorf("double-counted resident prefetch: PrefetchFills=%d Sources=%d",
			c.Stats.PrefetchFills, c.Stats.Sources[SrcL1].Fills)
	}
	c.Lookup(2, loadAt(20))
	s := c.Stats.Sources[SrcL1]
	if got := s.UsefulTimely + s.UsefulLate; got != 1 {
		t.Errorf("useful outcomes = %d, want 1", got)
	}
	if fills := s.Fills; fills != s.UsefulTimely+s.UsefulLate+s.EvictedUnused {
		t.Errorf("attribution unbalanced: fills=%d outcomes=%d",
			fills, s.UsefulTimely+s.UsefulLate+s.EvictedUnused)
	}
}

func TestFillRefreshKeepsEarlierReadyAt(t *testing.T) {
	c := New(testConfig())
	a := loadAt(4)
	c.Fill(a, 100, SrcDemand)
	c.Fill(a, 200, SrcDemand)
	if r := c.Lookup(150, a); r.ExtraWait != 0 {
		t.Errorf("refresh pushed readyAt back: ExtraWait = %d, want 0", r.ExtraWait)
	}

	b := loadAt(20)
	c.Fill(b, 200, SrcDemand)
	c.Fill(b, 100, SrcDemand)
	if r := c.Lookup(150, b); r.ExtraWait != 0 {
		t.Errorf("refresh ignored earlier readyAt: ExtraWait = %d, want 0", r.ExtraWait)
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := New(Config{Name: "d", Sets: 2, Ways: 1})
	if c.Config().Ports != 1 || c.Config().MSHRs != 8 {
		t.Errorf("defaults not applied: %+v", c.Config())
	}
	if c.repl == nil {
		t.Fatal("nil policy not defaulted")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "bad", Sets: 3, Ways: 1},
		{Name: "bad", Sets: 4, Ways: 17},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d sets x %d ways did not panic", cfg.Sets, cfg.Ways)
				}
			}()
			New(cfg)
		}()
	}
}

func TestSetOfProperty(t *testing.T) {
	c := New(Config{Name: "p", Sets: 64, Ways: 2})
	f := func(l uint64) bool {
		s := c.SetOf(mem.Line(l))
		return s >= 0 && s < 64 && s == int(l%64)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMarkDirty(t *testing.T) {
	c := New(testConfig())
	c.Fill(loadAt(2), 0, SrcDemand)
	if !c.MarkDirty(2) {
		t.Error("MarkDirty failed on resident line")
	}
	if c.MarkDirty(99) {
		t.Error("MarkDirty succeeded on absent line")
	}
	for i := 1; i <= 4; i++ {
		c.Fill(loadAt(mem.Line(2+i*16)), 0, SrcDemand)
	}
	if c.Stats.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
}

// TestReserveFlushCountsUnusedPrefetch pins the fix for a lifecycle leak
// the differential oracle flagged: a prefetched line flushed by a way
// reservation left the cache without a demand hit, but Reserve did not
// count it as evicted-unused, so the per-source partition (fills = useful +
// evicted-unused + still-resident) leaked one line per repartition flush.
func TestReserveFlushCountsUnusedPrefetch(t *testing.T) {
	c := New(testConfig())
	// Way 0 of set 2 holds an unused temporal prefetch; way 1 a used one.
	pf := mem.Access{Addr: mem.AddrOf(2), Kind: mem.Prefetch}
	c.Fill(pf, 0, SrcTemporal)
	used := mem.Access{Addr: mem.AddrOf(2 + 16), Kind: mem.Prefetch}
	c.Fill(used, 0, SrcTemporal)
	c.Lookup(1, loadAt(2+16)) // demand hit consumes the prefetch bit

	flushed, _ := c.Reserve(2, c.Ways())
	if flushed != 2 {
		t.Fatalf("flushed = %d, want 2", flushed)
	}
	if c.Stats.UnusedPrefetches != 1 {
		t.Errorf("UnusedPrefetches = %d, want 1 (the unused flushed line)", c.Stats.UnusedPrefetches)
	}
	if got := c.Stats.Sources[SrcTemporal].EvictedUnused; got != 1 {
		t.Errorf("Sources[temporal].EvictedUnused = %d, want 1", got)
	}
	// The partition closes: fills = useful + evicted-unused, nothing resident.
	ss := c.Stats.Sources[SrcTemporal]
	if ss.Fills != ss.UsefulTimely+ss.UsefulLate+ss.EvictedUnused {
		t.Errorf("lifecycle partition leaks: %+v", ss)
	}
}

func TestSteadyStateNoAllocs(t *testing.T) {
	// Lookup and Fill on a full cache touch only the flat tag, line and
	// policy arrays.
	c := New(Config{Name: "T", Sets: 16, Ways: 4, Latency: 1})
	rng := rand.New(rand.NewSource(5))
	// AllocsPerRun truncates its average, so one run is a batch and the
	// result is the batch's whole allocation count.
	batch := func() {
		for i := 0; i < 5000; i++ {
			a := mem.Access{Addr: mem.AddrOf(mem.Line(rng.Intn(512))), Kind: mem.Load}
			if !c.Lookup(0, a).Hit {
				c.Fill(a, 0, SrcDemand)
			}
		}
	}
	batch()
	if c.OccupiedLines() != 64 || c.Stats.Evictions == 0 || c.Stats.DemandHits == 0 {
		t.Fatalf("warm-up left the cache unfilled or unexercised: %d lines, %+v", c.OccupiedLines(), c.Stats)
	}
	if allocs := testing.AllocsPerRun(1, batch); allocs != 0 {
		t.Errorf("%.0f allocs in 5000 Lookup+Fill pairs on a full cache, want 0", allocs)
	}
}
