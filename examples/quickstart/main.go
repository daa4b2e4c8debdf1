// Quickstart: build a simulated system with the Streamline temporal
// prefetcher, run a pointer-chasing workload through it, and print the
// speedup over the same system without Streamline.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"streamline/internal/core"
	"streamline/internal/meta"
	"streamline/internal/prefetch"
	"streamline/internal/prefetch/stride"
	"streamline/internal/sim"
	"streamline/internal/workloads"
)

func main() {
	// A scaled-down system (256KB LLC) so the demo runs in seconds; use
	// sim.DefaultConfig(1) unmodified for the Table II hierarchy.
	cfg := sim.DefaultConfig(1)
	cfg.L2.Sets = 128  // 64KB L2
	cfg.LLC.Sets = 256 // 256KB LLC
	cfg.WarmupInstructions = 400_000
	cfg.MeasureInstructions = 1_200_000
	cfg.L1DPrefetcher = func() prefetch.Prefetcher { return stride.New() }

	// The workload: a pointer chase whose node-visit order repeats every
	// lap — the irregular-but-repetitive pattern temporal prefetching
	// exists for. Stride prefetchers can do nothing with it.
	workload, err := workloads.Get("sphinx06")
	if err != nil {
		panic(err)
	}
	scale := workloads.Scale{Footprint: 0.1}

	// Baseline: L1 stride prefetcher only.
	base := sim.New(cfg).RunTrace(workload.NewTrace(scale, 42))

	// Same system + Streamline: metadata lives in a partition of the LLC.
	cfgS := cfg
	cfgS.Temporal = func(b meta.Bridge) prefetch.Prefetcher {
		o := core.DefaultOptions()
		o.MetaBytes = 128 << 10 // scale the 1MB budget with the 256KB LLC
		o.MinSets = 16
		return core.New(o, b)
	}
	with := sim.New(cfgS).RunTrace(workload.NewTrace(scale, 42))

	fmt.Println("Streamline quickstart — repeating pointer chase (sphinx-like)")
	fmt.Printf("  baseline IPC:    %.4f   (L2 misses: %d)\n",
		base.IPC(), base.Cores[0].L2.DemandMisses)
	fmt.Printf("  +Streamline IPC: %.4f   (L2 misses: %d)\n",
		with.IPC(), with.Cores[0].L2.DemandMisses)
	fmt.Printf("  speedup: %.2fx\n", with.IPC()/base.IPC())

	m := with.Cores[0].Meta
	fmt.Printf("\n  metadata: %d lookups (%.0f%% trigger hits), %d block reads, %d block writes\n",
		m.Lookups, m.TriggerHitRate()*100, m.Reads, m.Writes)
	fmt.Printf("  prefetches: %d filled into L2, %d useful (%.0f%% accuracy)\n",
		with.Cores[0].L2.PrefetchFills, with.Cores[0].L2.UsefulPrefetches,
		with.Cores[0].PrefetchAccuracy()*100)
}
