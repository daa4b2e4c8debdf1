package sim

// This file is the engine table: the one place that maps a prefetcher name
// to where it attaches and how it is built. The daemon's Spec, the sweep's
// arms, the CLI and the conformance suite all build engines through it, so
// "triangel" means the same construction everywhere, and a tenth engine is
// its package plus one row here.

import (
	"fmt"

	"streamline/internal/core"
	"streamline/internal/dram"
	"streamline/internal/meta"
	"streamline/internal/prefetch"
	"streamline/internal/prefetch/berti"
	"streamline/internal/prefetch/bingo"
	"streamline/internal/prefetch/ipcp"
	"streamline/internal/prefetch/spp"
	"streamline/internal/prefetch/stms"
	"streamline/internal/prefetch/stride"
	"streamline/internal/prefetch/triage"
	"streamline/internal/prefetch/triangel"
	"streamline/internal/workloads"
)

// Slot is where an engine attaches in the hierarchy.
type Slot int

const (
	// SlotL1 and SlotL2 hold the regular per-core prefetchers.
	SlotL1 Slot = iota
	SlotL2
	// SlotLLC holds a temporal prefetcher whose metadata lives in the LLC.
	SlotLLC
	// SlotDRAM holds a temporal prefetcher whose metadata lives off-chip.
	// SlotLLC and SlotDRAM are mutually exclusive (Config.Temporal vs
	// Config.TemporalDRAM).
	SlotDRAM
)

// Knobs are the sizing values callers set on an engine. A zero field keeps
// the engine's own default; engines without the notion ignore the field.
type Knobs struct {
	// MetaBytes is the per-core maximum metadata partition.
	MetaBytes int
	// MinSets is the permanent metadata set floor.
	MinSets int
	// Bypass enables scan bypassing on engines whose row says Bypass.
	Bypass bool
}

// EngineRow is one engine of the table. Exactly one constructor field is
// set, the one its Slot names.
type EngineRow struct {
	Name string
	Slot Slot
	// Bypass reports that the engine honours Knobs.Bypass.
	Bypass bool

	perCore PrefetcherFactory                    // SlotL1, SlotL2
	llc     func(Knobs) TemporalFactory          // SlotLLC
	offchip func(*dram.DRAM) prefetch.Prefetcher // SlotDRAM
}

var engineTable = []EngineRow{
	{Name: "stride", Slot: SlotL1, perCore: func() prefetch.Prefetcher { return stride.New() }},
	{Name: "berti", Slot: SlotL1, perCore: func() prefetch.Prefetcher { return berti.New() }},
	{Name: "ipcp", Slot: SlotL2, perCore: func() prefetch.Prefetcher { return ipcp.New() }},
	{Name: "bingo", Slot: SlotL2, perCore: func() prefetch.Prefetcher { return bingo.New() }},
	{Name: "spp", Slot: SlotL2, perCore: func() prefetch.Prefetcher { return spp.New() }},
	{Name: "triage", Slot: SlotLLC, llc: func(k Knobs) TemporalFactory { return Triage(k, nil) }},
	{Name: "triangel", Slot: SlotLLC, llc: func(k Knobs) TemporalFactory { return Triangel(k, nil) }},
	{Name: "streamline", Slot: SlotLLC, Bypass: true, llc: func(k Knobs) TemporalFactory { return Streamline(k, nil) }},
	{Name: "stms", Slot: SlotDRAM, offchip: func(d *dram.DRAM) prefetch.Prefetcher { return stms.New(d) }},
}

// Engines returns the table's rows in table order (the order option lists
// and the conformance suite enumerate them).
func Engines() []EngineRow { return engineTable }

// TriageConfig resolves the configuration a Triage factory builds:
// defaults, then knobs, then tune (which may be nil) for sweep arms that vary
// a setting the knobs do not cover. Triage builds from it, so a sweep arm
// that states what it builds from it cannot drift from what is built.
func TriageConfig(k Knobs, tune func(*triage.Config)) triage.Config {
	c := triage.DefaultConfig()
	if k.MetaBytes > 0 {
		c.MetaBytes = k.MetaBytes
	}
	if tune != nil {
		tune(&c)
	}
	return c
}

// TriangelConfig is TriageConfig's counterpart for Triangel.
func TriangelConfig(k Knobs, tune func(*triangel.Config)) triangel.Config {
	c := triangel.DefaultConfig()
	if k.MetaBytes > 0 {
		c.MetaBytes = k.MetaBytes
	}
	if tune != nil {
		tune(&c)
	}
	return c
}

// StreamlineOptions is TriageConfig's counterpart for Streamline.
func StreamlineOptions(k Knobs, tune func(*core.Options)) core.Options {
	o := core.DefaultOptions()
	if k.MetaBytes > 0 {
		o.MetaBytes = k.MetaBytes
	}
	if k.MinSets > 0 {
		o.MinSets = k.MinSets
	}
	o.Bypass = k.Bypass
	if tune != nil {
		tune(&o)
	}
	return o
}

// Triage builds the Triage factory from TriageConfig(k, tune).
func Triage(k Knobs, tune func(*triage.Config)) TemporalFactory {
	c := TriageConfig(k, tune)
	return func(b meta.Bridge) prefetch.Prefetcher { return triage.New(c, b) }
}

// Triangel builds the Triangel factory from TriangelConfig(k, tune).
func Triangel(k Knobs, tune func(*triangel.Config)) TemporalFactory {
	c := TriangelConfig(k, tune)
	return func(b meta.Bridge) prefetch.Prefetcher { return triangel.New(c, b) }
}

// Streamline builds the Streamline factory from StreamlineOptions(k, tune).
func Streamline(k Knobs, tune func(*core.Options)) TemporalFactory {
	o := StreamlineOptions(k, tune)
	return func(b meta.Bridge) prefetch.Prefetcher { return core.New(o, b) }
}

// Attach configures cfg to build the named engine, with knobs k, in the
// engine's slot on every core.
func Attach(cfg *Config, name string, k Knobs) error {
	for _, e := range engineTable {
		if e.Name != name {
			continue
		}
		switch e.Slot {
		case SlotL1:
			cfg.L1DPrefetcher = e.perCore
		case SlotL2:
			cfg.L2Prefetcher = e.perCore
		case SlotLLC:
			cfg.Temporal = e.llc(k)
		case SlotDRAM:
			cfg.TemporalDRAM = e.offchip
		}
		return nil
	}
	return fmt.Errorf("sim: unknown engine %q", name)
}

// AttachWorkloads gives core c a fresh trace of workload names[c%len(names)]
// at the given footprint, seeded seed+c — the one way every entry point
// populates a system's cores.
func (s *System) AttachWorkloads(names []string, footprint float64, seed int64) error {
	for c := range s.cores {
		w, err := workloads.Get(names[c%len(names)])
		if err != nil {
			return err
		}
		s.SetTrace(c, w.NewTrace(workloads.Scale{Footprint: footprint}, seed+int64(c)))
	}
	return nil
}
