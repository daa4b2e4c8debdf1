package sim

// This file defines the kernel scenarios: small, representative simulations
// of the per-trace-record path (System.step -> demandAccess -> cache
// Lookup/Fill -> dram.Access -> prefetcher Train). They back the allocation
// ceiling in bench_test.go; the repository benchmark (`go run ./benchmark`)
// is the tracked measurement of the same path's time.

// kernelScenario is one representative kernel benchmark configuration: a
// core count, a workload per core, and instruction budgets on the scaled
// test hierarchy (the same ~8x-reduced geometry the sim tests use).
type kernelScenario struct {
	name string
	// cores is the simulated core count; workloads assigns one per core.
	cores     int
	workloads []string
	// warmup and measure are the per-core instruction budgets.
	warmup, measure uint64
	// engine names a row of the engine table, or "" for none; Attach
	// places it by its slot. Such scenarios first attach a stride L1D
	// prefetcher so the full Train/issuePrefetch path is exercised; an L1
	// engine takes its slot.
	engine string
}

// kernelScenarios returns the representative kernel benchmark set: a
// prefetcher-free single-core baseline (pure hierarchy cost), the three
// LLC-hosted temporal prefetchers single-core (Triage on mcf06 chases the
// most metadata hops per training event), SPP-PPF and Bingo as L2 regular
// prefetchers (bzip206 is where Bingo predicts in the regular benchmark),
// Berti as the L1D prefetcher, and a 4-core multi-programmed mix (scheduler
// and shared-resource cost).
func kernelScenarios() []kernelScenario {
	return []kernelScenario{
		{name: "1core-base-sphinx06", cores: 1, workloads: []string{"sphinx06"},
			warmup: 50_000, measure: 200_000},
		{name: "1core-streamline-sphinx06", cores: 1, workloads: []string{"sphinx06"},
			warmup: 50_000, measure: 200_000, engine: "streamline"},
		{name: "1core-triangel-mcf06", cores: 1, workloads: []string{"mcf06"},
			warmup: 50_000, measure: 200_000, engine: "triangel"},
		{name: "1core-triage-mcf06", cores: 1, workloads: []string{"mcf06"},
			warmup: 50_000, measure: 200_000, engine: "triage"},
		{name: "1core-spp-bzip206", cores: 1, workloads: []string{"bzip206"},
			warmup: 50_000, measure: 200_000, engine: "spp"},
		{name: "1core-bingo-bzip206", cores: 1, workloads: []string{"bzip206"},
			warmup: 50_000, measure: 200_000, engine: "bingo"},
		{name: "1core-berti-lbm17", cores: 1, workloads: []string{"lbm17"},
			warmup: 50_000, measure: 200_000, engine: "berti"},
		{name: "4core-streamline-mix", cores: 4,
			workloads: []string{"sphinx06", "mcf06", "bfs", "libquantum06"},
			warmup:    25_000, measure: 100_000, engine: "streamline"},
	}
}

// run executes the scenario once on the scaled-down test hierarchy
// (smallConfig; footprint 0.1 stresses it the way the full-size workloads
// stress the Table II hierarchy), returning the simulation result and the
// number of trace records the kernel executed (warmup plus measurement).
func (k kernelScenario) run() (Result, uint64, error) {
	cfg := smallConfig(k.cores)
	cfg.WarmupInstructions = k.warmup
	cfg.MeasureInstructions = k.measure
	if k.engine != "" {
		for _, name := range []string{"stride", k.engine} {
			// Zero knobs: every engine at its own defaults.
			if err := Attach(&cfg, name, Knobs{}); err != nil {
				return Result{}, 0, err
			}
		}
	}
	sys := New(cfg)
	if err := sys.AttachWorkloads(k.workloads, 0.1, 1); err != nil {
		return Result{}, 0, err
	}
	eng := sys.Engine()
	res := eng.Finish()
	return res, eng.Progress().Records, nil
}
