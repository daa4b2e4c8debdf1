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
	"streamline/internal/prefetch"
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
// must uniquely identify the configuration among a runner's arms. What apply
// builds and what identity states come from one resolution of its spec: two
// arms with one identity restate one configuration under two names, and the
// runner simulates it once for both.
type Arm struct {
	Name string
	// spec is a pointer so Arm stays at three words: Sim holds an Arm, and
	// every memo lookup copies a Sim.
	spec *armSpec
}

// armSpec is everything an arm builds; resolve states each of its fields.
type armSpec struct {
	// l1 and l2 name knob-free engines of the engine table ("" is none).
	l1, l2 string
	// temporal is the temporal engine: nil for none, "stms" (the off-chip
	// engine of the engine table), idealTriage{}, or a builder's mod — a
	// func(*core.Options), func(*triangel.Config) or func(*triage.Config),
	// possibly a typed nil.
	temporal any
	// dedicated puts the temporal metadata in dedicated storage instead of
	// LLC capacity.
	dedicated bool
	// keep retains each simulated system next to its result (see kept).
	keep bool
}

// idealTriage is the temporal engine of the unlimited-metadata Triage.
type idealTriage struct{}

// armConfig is what an arm builds, whatever a figure calls it: its engine
// names, where its metadata lives, and its LLC temporal engine's fully
// resolved configuration.
type armConfig struct {
	l1, l2, offchip string
	dedicated       bool
	// temporal renders the LLC temporal engine's resolved configuration
	// ("" without one): defaults, then the scale's knobs, then the arm's mod,
	// from the resolution function the engine is built from.
	temporal string
}

// resolve maps the spec at sc to its identity, whether that names the arm
// (not a kept arm, whose system is its own, nor a metadata policy
// policyName cannot name), and the LLC temporal factory, nil without one.
func (s *armSpec) resolve(sc Scale) (id armConfig, named bool, llc sim.TemporalFactory) {
	id = armConfig{l1: s.l1, l2: s.l2, dedicated: s.dedicated}
	named = !s.keep
	k := sc.knobs()
	switch t := s.temporal.(type) {
	case string:
		id.offchip = t
	case idealTriage:
		id.temporal = "triage-ideal"
		llc = func(meta.Bridge) prefetch.Prefetcher { return triage.NewIdeal() }
	case func(*triage.Config):
		id.temporal = fmt.Sprintf("triage%+v", sim.TriageConfig(k, t))
		llc = sim.Triage(k, t)
	case func(*triangel.Config):
		c := sim.TriangelConfig(k, t)
		policy, ok := policyName(c.Policy, meta.NewEntrySRRIP)
		c.Policy = nil
		id.temporal = fmt.Sprintf("triangel%+v/%s", c, policy)
		named = named && ok
		llc = sim.Triangel(k, t)
	case func(*core.Options):
		o := sim.StreamlineOptions(k, t)
		policy, ok := policyName(o.Policy, core.NewTPMockingjay)
		o.Policy = nil
		id.temporal = fmt.Sprintf("streamline%+v/%s", o, policy)
		named = named && ok
		llc = sim.Streamline(k, t)
	}
	return id, named, llc
}

// apply configures cfg to build the arm at sc. Its engine names come from
// code, so one the engine table lacks is a bug.
func (a Arm) apply(cfg *sim.Config, sc Scale) {
	id, _, llc := a.spec.resolve(sc)
	for _, n := range []string{id.l1, id.l2, id.offchip} {
		if n == "" {
			continue
		}
		if err := sim.Attach(cfg, n, sim.Knobs{}); err != nil {
			panic(err)
		}
	}
	cfg.Temporal, cfg.DedicatedMetadata = llc, id.dedicated
}

// identity returns what the arm builds at sc, and false when only its Name
// can tell it apart. Arms with equal identities simulate bit-identically on
// every unit.
func (a Arm) identity(sc Scale) (armConfig, bool) {
	id, named, _ := a.spec.resolve(sc)
	return id, named
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
	spec := *a.spec
	spec.keep = true
	return Arm{Name: a.Name, spec: &spec}
}

// dedicated moves the arm's temporal metadata from LLC capacity to dedicated
// storage (Triangel-Ideal).
func dedicated(a Arm) Arm {
	spec := *a.spec
	spec.dedicated = true
	return Arm{Name: a.Name + "-ideal", spec: &spec}
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
	return Arm{Name: name, spec: &armSpec{l1: l1, l2: l2}}
}

// stmsArm is the off-chip STMS baseline behind a stride L1D prefetcher.
func stmsArm() Arm {
	return Arm{Name: "stms", spec: &armSpec{l1: "stride", temporal: "stms"}}
}

// idealTriageArm is the unlimited-metadata Triage in dedicated storage behind
// a stride L1D prefetcher: the headroom that defines the irregular subset.
func idealTriageArm() Arm {
	return Arm{Name: "triage-ideal", spec: &armSpec{l1: "stride", temporal: idealTriage{}, dedicated: true}}
}

// triageArm builds a Triage arm; mod may adjust the configuration.
func triageArm(name, l1, l2 string, mod func(*triage.Config)) Arm {
	return Arm{Name: name, spec: &armSpec{l1: l1, l2: l2, temporal: mod}}
}

// triangelArm builds a Triangel arm; mod may adjust the configuration.
func triangelArm(name, l1, l2 string, mod func(*triangel.Config)) Arm {
	return Arm{Name: name, spec: &armSpec{l1: l1, l2: l2, temporal: mod}}
}

// streamlineArm builds a Streamline arm; mod may adjust the options.
func streamlineArm(name, l1, l2 string, mod func(*core.Options)) Arm {
	return Arm{Name: name, spec: &armSpec{l1: l1, l2: l2, temporal: mod}}
}
