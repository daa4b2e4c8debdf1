package sim

import (
	"testing"

	"streamline/internal/cache"
	"streamline/internal/mem"
	"streamline/internal/prefetch"
	"streamline/internal/prefetch/stride"
	"streamline/internal/trace"
	"streamline/internal/workloads"
)

// smallConfig returns a fast test system: the cache hierarchy is scaled
// down ~8x so the 0.1-footprint test workloads stress it the way the
// full-size workloads stress the Table II hierarchy.
func smallConfig(cores int) Config {
	cfg := DefaultConfig(cores)
	cfg.L2.Sets = 128  // 64KB
	cfg.LLC.Sets = 256 // 256KB per core
	cfg.WarmupInstructions = 100_000
	cfg.MeasureInstructions = 400_000
	return cfg
}

func traceFor(t *testing.T, name string, seed int64) trace.Trace {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return w.NewTrace(workloads.Scale{Footprint: 0.1}, seed)
}

func strideFactory() prefetch.Prefetcher { return stride.New() }

// oneShotTrace yields its records once; Reset does not rewind, modeling a
// source that cannot replay (e.g. a stream whose rewind failed).
type oneShotTrace struct {
	recs []trace.Record
	pos  int
}

func (o *oneShotTrace) Next() (trace.Record, bool) {
	if o.pos >= len(o.recs) {
		return trace.Record{}, false
	}
	r := o.recs[o.pos]
	o.pos++
	return r, true
}

func (o *oneShotTrace) NextChunk() []trace.Record {
	c := o.recs[o.pos:]
	o.pos = len(o.recs)
	return c
}

func (o *oneShotTrace) Reset() {}

func TestTraceExhaustedBeforeWarmup(t *testing.T) {
	// A trace that dies before warmup completes never opens the measured
	// window; the result must be empty, not the warmup activity reported
	// against a zero baseline.
	cfg := smallConfig(1)
	sys := New(cfg)
	recs := make([]trace.Record, 1000) // far fewer than WarmupInstructions
	for i := range recs {
		recs[i] = trace.Record{PC: 1, Addr: mem.Addr(i * 64)}
	}
	res := sys.RunTrace(&oneShotTrace{recs: recs})
	c := res.Cores[0]
	if c.Instructions != 0 || c.Cycles != 0 {
		t.Errorf("truncated trace reported a measured window: %d instructions, %d cycles",
			c.Instructions, c.Cycles)
	}
	if c.L1D != (cache.Stats{}) || c.L2 != (cache.Stats{}) {
		t.Errorf("truncated trace reported measured cache stats: L1D=%+v L2=%+v", c.L1D, c.L2)
	}
}

func TestBaselineRunsProduceSaneIPC(t *testing.T) {
	for _, name := range []string{"libquantum06", "sphinx06", "pr"} {
		sys := New(smallConfig(1))
		res := sys.RunTrace(traceFor(t, name, 1))
		if len(res.Cores) != 1 {
			t.Fatalf("%s: %d core results", name, len(res.Cores))
		}
		c := res.Cores[0]
		if c.Instructions < 395_000 {
			t.Errorf("%s: only %d instructions measured", name, c.Instructions)
		}
		if c.IPC <= 0.01 || c.IPC > 6.0 {
			t.Errorf("%s: IPC = %.3f out of sane range", name, c.IPC)
		}
		if c.L2.DemandAccesses == 0 {
			t.Errorf("%s: no L2 traffic", name)
		}
	}
}

func TestMemoryIntensiveWorkloadsMissInLLC(t *testing.T) {
	sys := New(smallConfig(1))
	res := sys.RunTrace(traceFor(t, "sphinx06", 2))
	if res.DRAM.Reads == 0 {
		t.Error("pointer chase generated no DRAM reads")
	}
	if res.Cores[0].L2MPKI() < 1 {
		t.Errorf("L2 MPKI = %.2f, want >= 1 (memory-intensive)", res.Cores[0].L2MPKI())
	}
}

func TestStrideConvertsStreamingMisses(t *testing.T) {
	// Pure streaming with writebacks is bandwidth-bound, so the win shows
	// up as converted misses (and it must not slow the workload down).
	base := New(smallConfig(1)).RunTrace(traceFor(t, "libquantum06", 3))

	cfg := smallConfig(1)
	cfg.L1DPrefetcher = strideFactory
	pf := New(cfg).RunTrace(traceFor(t, "libquantum06", 3))

	if pf.Cores[0].PrefetchesIssued == 0 {
		t.Fatal("stride prefetcher issued nothing on a streaming workload")
	}
	if pf.Cores[0].L1D.DemandMisses*10 > base.Cores[0].L1D.DemandMisses {
		t.Errorf("stride converted too few misses: %d -> %d",
			base.Cores[0].L1D.DemandMisses, pf.Cores[0].L1D.DemandMisses)
	}
	if pf.IPC() < 0.95*base.IPC() {
		t.Errorf("stride slowed streaming: %.3f -> %.3f", base.IPC(), pf.IPC())
	}
}

func TestStridePrefetcherSpeedsUpStencil(t *testing.T) {
	// The stencil has compute between lines and three concurrent streams:
	// latency-bound, so stride prefetching should produce real speedup.
	base := New(smallConfig(1)).RunTrace(traceFor(t, "roms17", 3))

	cfg := smallConfig(1)
	cfg.L1DPrefetcher = strideFactory
	pf := New(cfg).RunTrace(traceFor(t, "roms17", 3))

	speedup := pf.IPC() / base.IPC()
	if speedup < 1.05 {
		t.Errorf("stride speedup on stencil = %.3f, want >= 1.05 (base %.3f, pf %.3f)",
			speedup, base.IPC(), pf.IPC())
	}
}

func TestStridePrefetcherHarmlessOnPointerChase(t *testing.T) {
	base := New(smallConfig(1)).RunTrace(traceFor(t, "sphinx06", 4))
	cfg := smallConfig(1)
	cfg.L1DPrefetcher = strideFactory
	pf := New(cfg).RunTrace(traceFor(t, "sphinx06", 4))
	ratio := pf.IPC() / base.IPC()
	if ratio < 0.85 {
		t.Errorf("stride prefetcher slowed pointer chase by %.1f%%", (1-ratio)*100)
	}
}

func TestDependentChaseSlowerThanStreaming(t *testing.T) {
	chase := New(smallConfig(1)).RunTrace(traceFor(t, "sphinx06", 5))
	stream := New(smallConfig(1)).RunTrace(traceFor(t, "libquantum06", 5))
	if chase.IPC() >= stream.IPC() {
		t.Errorf("pointer chase IPC (%.3f) >= streaming IPC (%.3f)",
			chase.IPC(), stream.IPC())
	}
}

func TestMultiCoreRunCompletes(t *testing.T) {
	cfg := smallConfig(2)
	cfg.MeasureInstructions = 200_000
	sys := New(cfg)
	sys.SetTrace(0, traceFor(t, "sphinx06", 6))
	sys.SetTrace(1, traceFor(t, "libquantum06", 6))
	res := sys.Run()
	if len(res.Cores) != 2 {
		t.Fatalf("%d core results", len(res.Cores))
	}
	for i, c := range res.Cores {
		if c.Instructions < 195_000 {
			t.Errorf("core %d: %d instructions", i, c.Instructions)
		}
		if c.IPC <= 0 {
			t.Errorf("core %d: IPC = %.3f", i, c.IPC)
		}
	}
}

func TestMultiCoreContentionSlowsCores(t *testing.T) {
	// The same workload on 1 core vs alongside 7 memory-hungry neighbors:
	// shared LLC + DRAM contention must reduce its IPC.
	solo := New(smallConfig(1)).RunTrace(traceFor(t, "pr", 7))

	cfg := smallConfig(4)
	cfg.MeasureInstructions = 200_000
	sys := New(cfg)
	for c := 0; c < 4; c++ {
		sys.SetTrace(c, traceFor(t, "pr", 7))
	}
	shared := sys.Run()
	if shared.Cores[0].IPC >= solo.Cores[0].IPC {
		t.Errorf("no contention effect: solo %.3f, shared %.3f",
			solo.Cores[0].IPC, shared.Cores[0].IPC)
	}
}

func TestPrefetchAccuracyOnStreamingIsHigh(t *testing.T) {
	cfg := smallConfig(1)
	cfg.L1DPrefetcher = strideFactory
	res := New(cfg).RunTrace(traceFor(t, "libquantum06", 8))
	// Accuracy accounting lives in the L1D for an L1 prefetcher.
	l1 := res.Cores[0].L1D
	if l1.PrefetchFills == 0 {
		t.Fatal("no prefetch fills")
	}
	acc := float64(l1.UsefulPrefetches) / float64(l1.PrefetchFills)
	if acc < 0.5 {
		t.Errorf("stride accuracy on streaming = %.2f, want >= 0.5", acc)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Result {
		cfg := smallConfig(1)
		cfg.L1DPrefetcher = strideFactory
		return New(cfg).RunTrace(traceFor(t, "mcf06", 9))
	}
	a, b := run(), run()
	if a.Cores[0].Cycles != b.Cores[0].Cycles {
		t.Errorf("nondeterministic cycles: %d vs %d", a.Cores[0].Cycles, b.Cores[0].Cycles)
	}
	if a.Cores[0].L2.DemandMisses != b.Cores[0].L2.DemandMisses {
		t.Error("nondeterministic L2 misses")
	}
}

func TestWarmupExcludedFromMeasurement(t *testing.T) {
	cfg := smallConfig(1)
	res := New(cfg).RunTrace(traceFor(t, "sphinx06", 10))
	c := res.Cores[0]
	if c.Instructions > cfg.MeasureInstructions+1000 {
		t.Errorf("measured %d instructions, budget %d", c.Instructions, cfg.MeasureInstructions)
	}
}
