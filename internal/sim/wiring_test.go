package sim

import (
	"testing"

	"streamline/internal/mem"
	"streamline/internal/prefetch"
	"streamline/internal/prefetch/ipcp"
	"streamline/internal/trace"
)

// recordsOf builds a tiny in-memory trace.
func recordsOf(recs []trace.Record) trace.Trace { return trace.NewSlice(recs) }

func TestStoresDoNotStallTheCore(t *testing.T) {
	// A stream of store misses should retire at near store-buffer speed
	// even though each miss goes to DRAM.
	cfg := smallConfig(1)
	cfg.WarmupInstructions = 1000
	cfg.MeasureInstructions = 40_000
	var recs []trace.Record
	for i := 0; i < 20_000; i++ {
		recs = append(recs, trace.Record{
			PC: 1, Addr: mem.AddrOf(mem.Line(i * 7)), IsWrite: true, NonMem: 1,
		})
	}
	res := New(cfg).RunTrace(recordsOf(recs))
	if res.Cores[0].IPC < 1.0 {
		t.Errorf("store-only stream IPC = %.3f; store buffer not hiding misses", res.Cores[0].IPC)
	}
	if res.DRAM.Reads == 0 {
		t.Error("store misses generated no DRAM fills")
	}
}

func TestDirtyEvictionsReachDRAM(t *testing.T) {
	// Write a working set larger than the whole hierarchy, then overwrite
	// it: evictions must produce DRAM writes.
	cfg := smallConfig(1)
	cfg.WarmupInstructions = 1000
	cfg.MeasureInstructions = 100_000
	var recs []trace.Record
	for i := 0; i < 30_000; i++ {
		recs = append(recs, trace.Record{
			PC: 1, Addr: mem.AddrOf(mem.Line(i % 20_000)), IsWrite: true, NonMem: 1,
		})
	}
	res := New(cfg).RunTrace(recordsOf(recs))
	if res.DRAM.Writes == 0 {
		t.Error("no writebacks reached DRAM")
	}
}

func TestL2AndTemporalPrefetchersCoexist(t *testing.T) {
	cfg := smallConfig(1)
	cfg.WarmupInstructions = 200_000
	cfg.MeasureInstructions = 400_000
	cfg.L2Prefetcher = func() prefetch.Prefetcher { return ipcp.New() }
	cfg.Temporal = streamlineFactory
	res := New(cfg).RunTrace(traceFor(t, "sphinx06", 31))
	if res.Cores[0].IPC <= 0 {
		t.Fatal("combined prefetchers broke the run")
	}
	if res.Cores[0].Meta.Lookups == 0 {
		t.Error("temporal prefetcher idle alongside the L2 prefetcher")
	}
}

func TestMultiCoreCoresProgressIndependently(t *testing.T) {
	// A fast core paired with a slow one: both must reach their budgets,
	// and the fast one must not be held to the slow one's IPC.
	cfg := smallConfig(2)
	cfg.WarmupInstructions = 50_000
	cfg.MeasureInstructions = 300_000
	sys := New(cfg)
	sys.SetTrace(0, traceFor(t, "bzip206", 32))  // cache-resident: fast
	sys.SetTrace(1, traceFor(t, "sphinx06", 32)) // dependent chase: slow
	res := sys.Run()
	if res.Cores[0].IPC < 4*res.Cores[1].IPC {
		t.Errorf("fast core IPC %.3f not well above slow core %.3f",
			res.Cores[0].IPC, res.Cores[1].IPC)
	}
	for i, c := range res.Cores {
		if c.Instructions < 295_000 {
			t.Errorf("core %d only measured %d instructions", i, c.Instructions)
		}
	}
}

func TestSharedLLCContentionVisibleInStats(t *testing.T) {
	cfg := smallConfig(2)
	cfg.WarmupInstructions = 50_000
	cfg.MeasureInstructions = 200_000
	sys := New(cfg)
	sys.SetTrace(0, traceFor(t, "pr", 33))
	sys.SetTrace(1, traceFor(t, "pr", 34))
	res := sys.Run()
	if res.LLC.DemandAccesses == 0 {
		t.Fatal("no LLC traffic")
	}
	if res.DRAM.Reads == 0 {
		t.Fatal("no DRAM traffic")
	}
}

func TestTemporalOfExposesPrefetcher(t *testing.T) {
	cfg := smallConfig(1)
	cfg.Temporal = streamlineFactory
	sys := New(cfg)
	if sys.TemporalOf(0) == nil {
		t.Error("TemporalOf returned nil with a temporal prefetcher configured")
	}
	cfg2 := smallConfig(1)
	sys2 := New(cfg2)
	if p := sys2.TemporalOf(0); p == nil {
		t.Error("TemporalOf should return the Nil prefetcher, not nil")
	} else if p.Name() != "none" {
		t.Errorf("default temporal prefetcher = %q", p.Name())
	}
}

func TestSetTraceOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetTrace out of range did not panic")
		}
	}()
	New(smallConfig(1)).SetTrace(3, recordsOf(nil))
}

func TestPrefetchRequestsToResidentLinesAreCheap(t *testing.T) {
	// Issuing prefetches for lines already in the L2 must not inflate
	// DRAM traffic.
	cfg := smallConfig(1)
	cfg.WarmupInstructions = 10_000
	cfg.MeasureInstructions = 100_000
	// A small cyclic working set: resident after the first lap.
	var recs []trace.Record
	for i := 0; i < 500; i++ {
		recs = append(recs, trace.Record{PC: 1, Addr: mem.AddrOf(mem.Line(i)), NonMem: 3})
	}
	cfg.Temporal = streamlineFactory
	res := New(cfg).RunTrace(recordsOf(recs))
	// Working set is 500 lines; DRAM reads should be within a few laps of
	// cold misses, not proportional to the full run.
	if res.DRAM.Reads > 5000 {
		t.Errorf("resident working set caused %d DRAM reads", res.DRAM.Reads)
	}
}
