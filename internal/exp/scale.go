package exp

// This file holds the experiment sizing (Scale) and the arm builders: every
// system configuration an experiment compares is an Arm, and every Arm names
// its engines through the engine table in internal/sim.

import (
	"fmt"
	"reflect"
	"strings"

	"streamline/internal/core"
	"streamline/internal/meta"
	"streamline/internal/prefetch/triage"
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

// Arm is one system configuration under test. Name is what a figure calls
// it: results are memoized and stored by (Name, workload(s), cores), so Name
// must uniquely identify the configuration among a runner's arms. An arm's
// identity is what it builds (see identity): two arms with one identity
// restate one configuration under two names, and the runner simulates it
// once for both.
type Arm struct {
	Name  string
	Apply func(cfg *sim.Config, sc Scale)
	// spec is what an arm builder states about the arm; nil for a
	// hand-written Apply. A wrapper that changes what Apply builds must
	// state the change in a copy (as dedicated does), or two configurations
	// would share one simulation. A pointer keeps Arm at four words: Sim
	// holds an Arm, and every memo lookup copies a Sim.
	spec *armSpec
}

// armSpec is what an arm builder states about an arm.
type armSpec struct {
	// builds holds the engine names and metadata placement; identity
	// fills in its temporal field.
	builds armConfig
	// tune is the temporal engine's mod: a func(*core.Options),
	// func(*triangel.Config) or func(*triage.Config), possibly a typed nil.
	// An untyped nil means no LLC temporal engine.
	tune any
	// keepSystem retains each simulated system next to its result (see
	// kept).
	keepSystem bool
}

// keepsSystem reports whether the arm retains its simulated systems.
func (a Arm) keepsSystem() bool { return a.spec != nil && a.spec.keepSystem }

// armConfig is what an arm builds, whatever a figure calls it: its engine
// names, where its metadata lives, and its temporal engine's fully resolved
// configuration.
type armConfig struct {
	l1, l2, offchip string
	dedicated       bool
	// temporal renders the LLC temporal engine's resolved configuration
	// ("" without one): defaults, then the scale's knobs, then the arm's mod,
	// from the resolution function the engine is built from.
	temporal string
}

// identity returns what the arm builds at sc, and false when only its Name
// can tell it apart: a hand-written Apply, a kept arm (its retained system
// is its own), or a metadata policy identity cannot name. Arms with equal
// identities simulate bit-identically on every unit.
func (a Arm) identity(sc Scale) (armConfig, bool) {
	if a.spec == nil || a.spec.keepSystem {
		return armConfig{}, false
	}
	id, ok := a.spec.builds, true
	switch tune := a.spec.tune.(type) {
	case func(*triage.Config):
		id.temporal = fmt.Sprintf("triage%+v", sim.TriageConfig(sc.knobs(), tune))
	case func(*triangel.Config):
		c := sim.TriangelConfig(sc.knobs(), tune)
		var policy string
		policy, ok = policyName(c.Policy, meta.NewEntrySRRIP)
		c.Policy = nil
		id.temporal = fmt.Sprintf("triangel%+v/%s", c, policy)
	case func(*core.Options):
		o := sim.StreamlineOptions(sc.knobs(), tune)
		var policy string
		policy, ok = policyName(o.Policy, core.NewTPMockingjay)
		o.Policy = nil
		id.temporal = fmt.Sprintf("streamline%+v/%s", o, policy)
	}
	return id, ok
}

// entryPolicies names the metadata replacement policies an identity can
// state.
var entryPolicies = []struct {
	name string
	new  meta.EntryPolicyFactory
}{
	{"lru", meta.NewEntryLRU},
	{"srrip", meta.NewEntrySRRIP},
	{"tp-mockingjay", core.NewTPMockingjay},
}

// policyName names the metadata policy f, reading nil as the engine's
// default def. Functions compare only by code pointer, so any other factory
// — a closure above all, whose captured state the pointer does not cover —
// is unnamed: false.
func policyName(f, def meta.EntryPolicyFactory) (string, bool) {
	if f == nil {
		f = def
	}
	code := reflect.ValueOf(f).Pointer()
	for _, p := range entryPolicies {
		if reflect.ValueOf(p.new).Pointer() == code {
			return p.name, true
		}
	}
	return "", false
}

// kept marks the arm system-retaining, so an experiment can read
// prefetcher-internal state after its runs (Row's sys). Such an arm runs
// single workloads only, under the key "arm|workload".
func kept(a Arm) Arm {
	// A kept arm has no identity (its system is its own), so it needs
	// nothing else from the spec.
	a.spec = &armSpec{keepSystem: true}
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
	}, spec: &armSpec{builds: armConfig{l1: l1, l2: l2}}}
}

// stmsArm is the off-chip STMS baseline behind a stride L1D prefetcher.
func stmsArm() Arm {
	return Arm{Name: "stms", Apply: func(cfg *sim.Config, sc Scale) {
		attach(cfg, "stride", "stms")
	}, spec: &armSpec{builds: armConfig{l1: "stride", offchip: "stms"}}}
}

// triageArm builds a Triage arm; mod may adjust the configuration.
func triageArm(name, l1, l2 string, mod func(*triage.Config)) Arm {
	return Arm{Name: name, Apply: func(cfg *sim.Config, sc Scale) {
		attach(cfg, l1, l2)
		cfg.Temporal = sim.Triage(sc.knobs(), mod)
	}, spec: &armSpec{builds: armConfig{l1: l1, l2: l2}, tune: mod}}
}

// triangelArm builds a Triangel arm; mod may adjust the configuration.
func triangelArm(name, l1, l2 string, mod func(*triangel.Config)) Arm {
	return Arm{Name: name, Apply: func(cfg *sim.Config, sc Scale) {
		attach(cfg, l1, l2)
		cfg.Temporal = sim.Triangel(sc.knobs(), mod)
	}, spec: &armSpec{builds: armConfig{l1: l1, l2: l2}, tune: mod}}
}

// streamlineArm builds a Streamline arm; mod may adjust the options.
func streamlineArm(name, l1, l2 string, mod func(*core.Options)) Arm {
	return Arm{Name: name, Apply: func(cfg *sim.Config, sc Scale) {
		attach(cfg, l1, l2)
		cfg.Temporal = sim.Streamline(sc.knobs(), mod)
	}, spec: &armSpec{builds: armConfig{l1: l1, l2: l2}, tune: mod}}
}
