package exp

// This file holds the experiment sizing (Scale) and the arm builders: every
// system configuration an experiment compares is an Arm, and every Arm names
// its engines through the engine table in internal/sim.

import (
	"fmt"
	"strings"

	"streamline/internal/core"
	"streamline/internal/prefetch/triangel"
	"streamline/internal/sim"
	"streamline/internal/workloads"
)

// Scale fixes the experiment sizing so cache capacity and workload
// footprints stay proportioned the way Table II and the SPEC/GAP footprints
// are.
type Scale struct {
	Name      string
	Footprint float64
	L2Sets    int
	LLCSets   int
	// MetaBytes is the per-core maximum metadata partition (half the LLC).
	MetaBytes int
	// MinSets is Streamline's permanent metadata set floor.
	MinSets int
	Warmup  uint64
	Measure uint64
	// Workloads restricts the suite (nil: every registered workload).
	Workloads []string
	// MixCount is the number of multi-programmed mixes per core count.
	MixCount int
	// Bandwidth scales DRAM channel bandwidth. The small scale shrinks
	// the caches 8x under a full-size core, which multiplies the miss
	// rate; bandwidth must scale with it or every workload degenerates
	// to bandwidth-bound and prefetching cannot help.
	Bandwidth float64
	// Seed makes every run reproducible.
	Seed int64
}

// Small is the scaled-down sizing used by tests and benches: an 8x smaller
// hierarchy with 10x smaller footprints, preserving the capacity ratios that
// drive the paper's results.
var Small = Scale{
	Name:      "small",
	Footprint: 0.1,
	L2Sets:    128, // 64KB
	LLCSets:   256, // 256KB/core
	MetaBytes: 128 << 10,
	MinSets:   16,
	Warmup:    400_000,
	Measure:   1_200_000,
	Workloads: []string{
		"sphinx06", "mcf06", "omnetpp06", "soplex06", "libquantum06", "bzip206",
		"mcf17", "xz17", "lbm17", "gcc17",
		"pr", "cc", "bfs", "sssp",
	},
	MixCount:  6,
	Bandwidth: 4.0,
	Seed:      12345,
}

// Micro is the minimal sizing: the Small hierarchy with two workloads and
// tiny instruction budgets, so a full `-run all` sweep finishes in minutes
// on one core. It exists for the test suite and the crash-injection
// harness (`-scale micro`), not for reproducing numbers.
var Micro = func() Scale {
	sc := Small
	sc.Name = "micro"
	sc.Workloads = []string{"sphinx06", "libquantum06"}
	sc.Warmup = 40_000
	sc.Measure = 120_000
	sc.MixCount = 1
	return sc
}()

// Paper is the Table II sizing with full synthetic footprints.
var Paper = Scale{
	Name:      "paper",
	Footprint: 1.0,
	L2Sets:    1024, // 512KB
	LLCSets:   2048, // 2MB/core
	MetaBytes: 1 << 20,
	MinSets:   64,
	Warmup:    4_000_000,
	Measure:   12_000_000,
	MixCount:  12,
	Seed:      12345,
}

// Fingerprint canonically encodes every sizing parameter of the scale. The
// result store records it in each sweep's manifest and mixes it into every
// job key, so cached results are only ever replayed under the exact scale
// that produced them.
func (sc Scale) Fingerprint() string {
	return fmt.Sprintf("scale-v1|%s|%g|%d|%d|%d|%d|%d|%d|%s|%d|%g|%d",
		sc.Name, sc.Footprint, sc.L2Sets, sc.LLCSets, sc.MetaBytes, sc.MinSets,
		sc.Warmup, sc.Measure, strings.Join(sc.Workloads, ","), sc.MixCount,
		sc.Bandwidth, sc.Seed)
}

// workloadList resolves the scale's workload subset.
func (sc Scale) workloadList() []workloads.Workload {
	if sc.Workloads == nil {
		return workloads.All()
	}
	out := make([]workloads.Workload, 0, len(sc.Workloads))
	for _, n := range sc.Workloads {
		w, err := workloads.Get(n)
		if err != nil {
			panic(err)
		}
		out = append(out, w)
	}
	return out
}

func (sc Scale) irregular() []workloads.Workload {
	var out []workloads.Workload
	for _, w := range sc.workloadList() {
		if w.Irregular {
			out = append(out, w)
		}
	}
	return out
}

// baseConfig builds the system config for this scale.
func (sc Scale) baseConfig(cores int) sim.Config {
	cfg := sim.DefaultConfig(cores)
	cfg.L2.Sets = sc.L2Sets
	cfg.LLC.Sets = sc.LLCSets
	cfg.WarmupInstructions = sc.Warmup
	cfg.MeasureInstructions = sc.Measure
	if sc.Bandwidth > 1 {
		// Scale channel count, not burst time: the small hierarchy needs
		// proportional bank-level parallelism too, or random-access
		// workloads stay bank-throughput-bound no matter the bus speed.
		cfg.DRAM.Channels *= int(sc.Bandwidth)
	}
	return cfg
}

// knobs are the engine sizing values this scale fixes.
func (sc Scale) knobs() sim.Knobs {
	return sim.Knobs{MetaBytes: sc.MetaBytes, MinSets: sc.MinSets}
}

// ---- arms ------------------------------------------------------------

// Arm is one system configuration under test. Name must uniquely identify
// the configuration: results are memoized by (arm, workload(s), cores).
type Arm struct {
	Name  string
	Apply func(cfg *sim.Config, sc Scale)
	// keepSystem retains each simulated system next to its result (see kept).
	keepSystem bool
}

// kept marks the arm system-retaining, so an experiment can read
// prefetcher-internal state after its runs (Row's sys). Such an arm runs
// single workloads only, under the key "arm|workload".
func kept(a Arm) Arm {
	a.keepSystem = true
	return a
}

// attach configures cfg with the named knob-free engines from the engine
// table ("" is none). Arm definitions are code, so an unknown name is a bug.
func attach(cfg *sim.Config, names ...string) {
	for _, n := range names {
		if n == "" {
			continue
		}
		if err := sim.Attach(cfg, n, sim.Knobs{}); err != nil {
			panic(err)
		}
	}
}

// baseArm is the no-temporal baseline with the given L1/L2 prefetchers.
func baseArm(l1, l2 string) Arm {
	name := "base"
	if l1 != "" {
		name += "+" + l1
	}
	if l2 != "" {
		name += "+" + l2
	}
	return Arm{Name: name, Apply: func(cfg *sim.Config, sc Scale) {
		attach(cfg, l1, l2)
	}}
}

// stmsArm is the off-chip STMS baseline behind a stride L1D prefetcher.
func stmsArm() Arm {
	return Arm{Name: "stms", Apply: func(cfg *sim.Config, sc Scale) {
		attach(cfg, "stride", "stms")
	}}
}

// triangelArm builds a Triangel arm; mod may adjust the configuration and
// must be reflected in name.
func triangelArm(name, l1, l2 string, mod func(*triangel.Config)) Arm {
	return Arm{Name: name, Apply: func(cfg *sim.Config, sc Scale) {
		attach(cfg, l1, l2)
		cfg.Temporal = sim.Triangel(sc.knobs(), mod)
	}}
}

// streamlineArm builds a Streamline arm; mod may adjust the options and must
// be reflected in name.
func streamlineArm(name, l1, l2 string, mod func(*core.Options)) Arm {
	return Arm{Name: name, Apply: func(cfg *sim.Config, sc Scale) {
		attach(cfg, l1, l2)
		cfg.Temporal = sim.Streamline(sc.knobs(), mod)
	}}
}
