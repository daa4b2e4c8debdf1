// Package serve is the simulation-as-a-service layer behind cmd/streamd: an
// HTTP JSON daemon that accepts simulation requests carrying the same knobs
// as cmd/streamsim's flags, validates them against the workload and
// prefetcher registries, and executes them on a bounded worker pool with
// per-request fault isolation (internal/exp/runner's policy: panic
// isolation, per-attempt timeout).
//
// Three layers keep repeated work off the simulator:
//
//   - single-flight batching: N concurrent identical requests run one
//     simulation and share its response bytes;
//   - an in-memory LRU over marshaled response bodies;
//   - an optional content-addressed durable store (internal/exp/store, the
//     same SHA-256 record format as cmd/experiments' -checkpoint sweeps),
//     so results survive restarts and replay with checksum verification.
//
// Because a simulation is a pure function of its Spec, a cached reply is
// byte-identical to a cold one: the response body is marshaled exactly once
// and the same bytes are served from every layer.
package serve

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"streamline/internal/cache"
	"streamline/internal/dram"
	"streamline/internal/exp/store"
	"streamline/internal/meta"
	"streamline/internal/sim"
	"streamline/internal/workloads"
)

// FormatFingerprint names the request/response format version. It is mixed
// into every content-addressed result key and pinned in the store manifest,
// so a format change can never replay stale records.
const FormatFingerprint = "streamd-v1"

// The accepted values for each prefetcher slot, in the order flag help and
// validation errors list them: "none", then the engine table's rows for the
// slot, an engine that can bypass scans also under its "-bypass" spelling.
var (
	L1Options       = engineOptions(sim.SlotL1)
	L2Options       = engineOptions(sim.SlotL2)
	TemporalOptions = engineOptions(sim.SlotLLC, sim.SlotDRAM)
)

const bypassSuffix = "-bypass"

func engineOptions(slots ...sim.Slot) []string {
	opts := []string{"none"}
	for _, e := range sim.Engines() {
		for _, slot := range slots {
			if e.Slot != slot {
				continue
			}
			opts = append(opts, e.Name)
			if e.Bypass {
				opts = append(opts, e.Name+bypassSuffix)
			}
		}
	}
	return opts
}

// Defaults for every optional Spec field; a zero value selects its default
// (and an empty prefetcher slot selects cmd/streamsim's flag default).
const (
	DefaultL1        = "stride"
	DefaultL2        = "none"
	DefaultTemporal  = "none"
	DefaultCores     = 1
	DefaultFootprint = 0.1
	DefaultWarmup    = 400_000
	DefaultMeasure   = 1_200_000
	DefaultMetaKB    = 128
	DefaultLLCSets   = 256
	DefaultSeed      = 1
)

// Service-side bounds: one request may not be arbitrarily expensive.
const (
	MaxCores        = 16
	MaxInstructions = 100_000_000 // warmup + measure, per core
	MaxLLCSets      = 8192
	MaxMetaKB       = 16384
)

// Spec is one simulation request — the same knobs as cmd/streamsim's flags.
// The zero value of every field except Workload selects its default, so the
// minimal request is {"workload":"sphinx06"}.
type Spec struct {
	Workload  string  `json:"workload"`
	L1        string  `json:"l1,omitempty"`
	L2        string  `json:"l2,omitempty"`
	Temporal  string  `json:"temporal,omitempty"`
	Cores     int     `json:"cores,omitempty"`
	Footprint float64 `json:"footprint,omitempty"`
	Warmup    uint64  `json:"warmup,omitempty"`
	Measure   uint64  `json:"measure,omitempty"`
	MetaKB    int     `json:"metaKb,omitempty"`
	LLCSets   int     `json:"llcSets,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
}

// optionList renders allowed values for an error message: "a, b or c".
func optionList(opts []string) string {
	if len(opts) < 2 {
		return strings.Join(opts, "")
	}
	return strings.Join(opts[:len(opts)-1], ", ") + " or " + opts[len(opts)-1]
}

// checkOption rejects a prefetcher-slot value outside opts, naming the slot
// and the allowed values.
func checkOption(slot, v string, opts []string) error {
	if slices.Contains(opts, v) {
		return nil
	}
	return fmt.Errorf("unknown %s prefetcher %q (want %s)", slot, v, optionList(opts))
}

// workloadNames lists every registered workload for validation errors.
func workloadNames() string {
	names := make([]string, 0, len(workloads.All()))
	for _, w := range workloads.All() {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

// Normalize fills defaults into zero-valued fields and validates everything
// against the registries and service bounds. The returned error names the
// offending knob and the allowed values, so it is directly servable as a 400
// body or a CLI usage error.
func (sp *Spec) Normalize() error {
	orDefault(&sp.L1, DefaultL1)
	orDefault(&sp.L2, DefaultL2)
	orDefault(&sp.Temporal, DefaultTemporal)
	orDefault(&sp.Cores, DefaultCores)
	orDefault(&sp.Footprint, DefaultFootprint)
	orDefault(&sp.Warmup, DefaultWarmup)
	orDefault(&sp.Measure, DefaultMeasure)
	orDefault(&sp.MetaKB, DefaultMetaKB)
	orDefault(&sp.LLCSets, DefaultLLCSets)
	orDefault(&sp.Seed, DefaultSeed)

	if sp.Workload == "" {
		return fmt.Errorf("missing workload (want one of %s)", workloadNames())
	}
	if _, err := workloads.Get(sp.Workload); err != nil {
		return fmt.Errorf("unknown workload %q (want one of %s)", sp.Workload, workloadNames())
	}
	for _, sl := range sp.slots() {
		if err := checkOption(sl.slot, sl.value, sl.opts); err != nil {
			return err
		}
	}
	// The shared LLC has Cores x LLCSets sets, which must be a power of two.
	if sp.Cores < 1 || sp.Cores > MaxCores || sp.Cores&(sp.Cores-1) != 0 {
		return fmt.Errorf("cores must be between 1 and %d and a power of two (1, 2, 4, 8 or 16), got %d",
			MaxCores, sp.Cores)
	}
	if !(sp.Footprint > 0 && sp.Footprint <= 1) { // so that NaN fails too
		return fmt.Errorf("footprint must be in (0, 1], got %g", sp.Footprint)
	}
	if sp.Measure < 1 {
		return fmt.Errorf("measure must be at least 1 instruction")
	}
	if sp.Warmup > MaxInstructions || sp.Measure > MaxInstructions ||
		sp.Warmup+sp.Measure > MaxInstructions {
		return fmt.Errorf("warmup+measure must not exceed %d instructions, got %d",
			MaxInstructions, sp.Warmup+sp.Measure)
	}
	if sp.MetaKB < 1 || sp.MetaKB > MaxMetaKB {
		return fmt.Errorf("metaKb must be between 1 and %d, got %d", MaxMetaKB, sp.MetaKB)
	}
	if sp.LLCSets < 16 || sp.LLCSets > MaxLLCSets || sp.LLCSets&(sp.LLCSets-1) != 0 {
		return fmt.Errorf("llcSets must be a power of two between 16 and %d, got %d",
			MaxLLCSets, sp.LLCSets)
	}
	return nil
}

// orDefault sets a zero *v to d.
func orDefault[T comparable](v *T, d T) {
	var zero T
	if *v == zero {
		*v = d
	}
}

// ID is the canonical human-readable identity of a normalized spec; two
// requests that simulate the same configuration have equal IDs. It is
// "%s|%s|%s|%s|x%d|fp%g|w%d|m%d|meta%d|llc%d|seed%d" in fmt's terms.
func (sp Spec) ID() string {
	var buf [128]byte
	b := append(buf[:0], sp.Workload...)
	for _, s := range [...]string{sp.L1, sp.L2, sp.Temporal} {
		b = append(append(b, '|'), s...)
	}
	b = strconv.AppendInt(append(b, "|x"...), int64(sp.Cores), 10)
	b = strconv.AppendFloat(append(b, "|fp"...), sp.Footprint, 'g', -1, 64)
	b = strconv.AppendUint(append(b, "|w"...), sp.Warmup, 10)
	b = strconv.AppendUint(append(b, "|m"...), sp.Measure, 10)
	b = strconv.AppendInt(append(b, "|meta"...), int64(sp.MetaKB), 10)
	b = strconv.AppendInt(append(b, "|llc"...), int64(sp.LLCSets), 10)
	b = strconv.AppendInt(append(b, "|seed"...), sp.Seed, 10)
	return string(b)
}

// Key is the content-addressed result key for a normalized spec — the same
// length-prefixed SHA-256 scheme the sweep store uses, salted with the
// format fingerprint.
func (sp Spec) Key() string { return keyOf(sp.ID()) }

// keyOf is Key for a spec whose ID is already known.
func keyOf(id string) string { return store.Key("streamd-sim", FormatFingerprint, id) }

// ServiceManifest is the manifest under which streamd opens its result
// store: a fixed pseudo-scale naming the request format, so a daemon pointed
// at a sweep directory (or vice versa) fails fast instead of mixing records.
func ServiceManifest() store.Manifest {
	return store.Manifest{
		Version:   store.Version,
		ScaleName: "streamd",
		ScaleFP:   FormatFingerprint,
		Seed:      0,
	}
}

// Config builds the system configuration for a normalized spec, mirroring
// cmd/streamsim's flag wiring exactly (so CLI and daemon runs of the same
// knobs produce identical results).
func (sp Spec) Config() (sim.Config, error) {
	cfg := sim.DefaultConfig(sp.Cores)
	cfg.LLC.Sets = sp.LLCSets
	cfg.L2.Sets = max(64, sp.LLCSets/2)
	cfg.WarmupInstructions = sp.Warmup
	cfg.MeasureInstructions = sp.Measure

	knobs := sim.Knobs{MetaBytes: sp.MetaKB << 10, MinSets: max(8, sp.LLCSets/16)}
	for _, sl := range sp.slots() {
		if err := checkOption(sl.slot, sl.value, sl.opts); err != nil {
			return sim.Config{}, err
		}
		if sl.value == "none" {
			continue
		}
		k := knobs
		name, bypass := strings.CutSuffix(sl.value, bypassSuffix)
		k.Bypass = bypass
		if err := sim.Attach(&cfg, name, k); err != nil {
			return sim.Config{}, err
		}
	}
	return cfg, nil
}

// slotValue is one prefetcher slot of a spec: its name in error messages,
// the requested value, and the accepted options.
type slotValue struct {
	slot, value string
	opts        []string
}

func (sp Spec) slots() [3]slotValue {
	return [3]slotValue{
		{"l1", sp.L1, L1Options},
		{"l2", sp.L2, L2Options},
		{"temporal", sp.Temporal, TemporalOptions},
	}
}

// NewSystem builds the simulated system for cfg and attaches one trace of
// the spec's workload per core, seeded the way cmd/streamsim seeds them.
// cfg should come from Config (possibly with audit/telemetry attached).
func (sp Spec) NewSystem(cfg sim.Config) (*sim.System, error) {
	sys := sim.New(cfg)
	if err := sys.AttachWorkloads([]string{sp.Workload}, sp.Footprint, sp.Seed); err != nil {
		return nil, err
	}
	return sys, nil
}

// Result is the response document: the run configuration, every core's raw
// statistics plus the derived rates the tables print, and the per-engine
// prefetch lifecycle attribution. cmd/streamsim's -json emits the same
// document.
type Result struct {
	Workload string `json:"workload"`
	Cores    int    `json:"cores"`
	L1       string `json:"l1"`
	L2       string `json:"l2"`
	Temporal string `json:"temporal"`
	Seed     int64  `json:"seed"`

	CoreResults []CoreResult `json:"coreResults"`
	LLC         cache.Stats  `json:"llc"`
	DRAM        dram.Stats   `json:"dram"`
}

// CoreResult is one core's slice of the Result document.
type CoreResult struct {
	Core             int     `json:"core"`
	Instructions     uint64  `json:"instructions"`
	Cycles           uint64  `json:"cycles"`
	IPC              float64 `json:"ipc"`
	L1DMPKI          float64 `json:"l1dMpki"`
	L2MPKI           float64 `json:"l2Mpki"`
	PrefetchAccuracy float64 `json:"prefetchAccuracy"`

	L1D cache.Stats `json:"l1d"`
	L2  cache.Stats `json:"l2"`

	PrefetchesIssued uint64             `json:"prefetchesIssued"`
	Prefetchers      []PrefetcherResult `json:"prefetchers"`
	Meta             meta.Stats         `json:"meta"`
}

// PrefetcherResult is one engine's lifecycle attribution within a CoreResult.
type PrefetcherResult struct {
	Source           string  `json:"source"`
	Issued           uint64  `json:"issued"`
	DroppedDuplicate uint64  `json:"droppedDuplicate"`
	Fills            uint64  `json:"fills"`
	UsefulTimely     uint64  `json:"usefulTimely"`
	UsefulLate       uint64  `json:"usefulLate"`
	EvictedUnused    uint64  `json:"evictedUnused"`
	Accuracy         float64 `json:"accuracy"`
	Pollution        float64 `json:"pollution"`
}

// BuildResult assembles the response document for a normalized spec's run.
func BuildResult(sp Spec, res sim.Result) Result {
	out := Result{
		Workload: sp.Workload, Cores: sp.Cores, L1: sp.L1, L2: sp.L2,
		Temporal: sp.Temporal, Seed: sp.Seed,
		LLC: res.LLC, DRAM: res.DRAM,
	}
	for i, c := range res.Cores {
		cr := CoreResult{
			Core:             i,
			Instructions:     c.Instructions,
			Cycles:           c.Cycles,
			IPC:              c.IPC,
			L1DMPKI:          c.L1DMPKI(),
			L2MPKI:           c.L2MPKI(),
			PrefetchAccuracy: c.PrefetchAccuracy(),
			L1D:              c.L1D,
			L2:               c.L2,
			PrefetchesIssued: c.PrefetchesIssued,
			Meta:             c.Meta,
		}
		for _, p := range c.Prefetchers {
			cr.Prefetchers = append(cr.Prefetchers, PrefetcherResult{
				Source:           p.Source,
				Issued:           p.Issued,
				DroppedDuplicate: p.DroppedDuplicate,
				Fills:            p.Fills,
				UsefulTimely:     p.UsefulTimely,
				UsefulLate:       p.UsefulLate,
				EvictedUnused:    p.EvictedUnused,
				Accuracy:         p.Accuracy(),
				Pollution:        p.Pollution(),
			})
		}
		out.CoreResults = append(out.CoreResults, cr)
	}
	return out
}
