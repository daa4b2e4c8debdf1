// Package sim wires the substrates into the simulated system of Table II —
// out-of-order cores, a three-level cache hierarchy with a partitionable
// shared LLC, prefetchers at the L1D and L2, temporal prefetchers with
// LLC-resident metadata, and banked DRAM — and drives traces through it,
// producing the statistics every experiment in the paper reports.
package sim

import (
	"fmt"

	"streamline/internal/audit"
	"streamline/internal/cache"
	"streamline/internal/cpu"
	"streamline/internal/dram"
	"streamline/internal/mem"
	"streamline/internal/meta"
	"streamline/internal/prefetch"
	"streamline/internal/telemetry"
	"streamline/internal/trace"
)

// TemporalFactory builds a core's temporal prefetcher over its LLC metadata
// bridge. A nil factory means no temporal prefetcher.
type TemporalFactory func(bridge meta.Bridge) prefetch.Prefetcher

// PrefetcherFactory builds a per-core prefetcher. nil means none.
type PrefetcherFactory func() prefetch.Prefetcher

// Config describes a simulated system. The zero value is unusable; start
// from DefaultConfig.
type Config struct {
	Cores int
	CPU   cpu.Config

	L1D cache.Config
	L2  cache.Config
	// LLC is the per-core LLC slice; the constructed LLC scales Sets by
	// the core count (Table II: 2MB/core).
	LLC  cache.Config
	DRAM dram.Config

	// L1DPrefetcher and L2Prefetcher build each core's regular
	// prefetchers.
	L1DPrefetcher PrefetcherFactory
	L2Prefetcher  PrefetcherFactory
	// Temporal builds each core's temporal prefetcher (attached to the
	// L2, metadata in the LLC).
	Temporal TemporalFactory
	// TemporalDRAM builds an off-chip temporal prefetcher whose metadata
	// engine accesses DRAM directly (the STMS-style baseline); mutually
	// exclusive with Temporal.
	TemporalDRAM func(d *dram.DRAM) prefetch.Prefetcher
	// DedicatedMetadata gives temporal prefetchers dedicated storage
	// instead of LLC capacity (the Triangel-Ideal arm of Figure 13a).
	DedicatedMetadata bool

	// WarmupInstructions and MeasureInstructions bound each core's run.
	WarmupInstructions  uint64
	MeasureInstructions uint64

	// Audit, when non-nil, enables the runtime invariant-checking
	// subsystem: the hierarchy's structural invariants are verified during
	// and after the run and violations reported to this auditor. Checks
	// are read-only, so an audited run produces byte-identical statistics;
	// nil (the default) reduces every hook to a branch.
	Audit *audit.Auditor
	// AuditInterval is the number of trace records between periodic full
	// invariant scans when Audit is set; zero means the default (4096).
	// A final scan always runs when the simulation completes.
	AuditInterval uint64

	// Telemetry, when non-nil, enables the observability layer: an interval
	// sampler that emits one JSONL record per core every
	// Telemetry.SampleInterval() measured instructions, and a structured
	// event trace fed by the hierarchy (MSHR-full stalls, DRAM row
	// conflicts, metadata resizes, accuracy epochs, audit violations).
	// Instrumentation is read-only, so an instrumented run produces a
	// byte-identical Result; nil (the default) reduces every hook to a
	// branch.
	Telemetry *telemetry.Collector
}

// DefaultConfig returns the Table II system for the given core count.
func DefaultConfig(cores int) Config {
	if cores < 1 {
		cores = 1
	}
	return Config{
		Cores: cores,
		CPU:   cpu.DefaultConfig,
		L1D: cache.Config{
			Name: "L1D", Sets: 64, Ways: 12, Latency: 5, MSHRs: 16, Ports: 2,
		},
		L2: cache.Config{
			Name: "L2", Sets: 1024, Ways: 8, Latency: 10, MSHRs: 32, Ports: 1,
		},
		LLC: cache.Config{
			Name: "LLC", Sets: 2048, Ways: 16, Latency: 20, MSHRs: 64, Ports: 1,
		},
		DRAM:                dram.ConfigFor(cores),
		WarmupInstructions:  2_000_000,
		MeasureInstructions: 8_000_000,
	}
}

// coreState is the per-core machinery.
type coreState struct {
	id    int
	core  *cpu.Core
	l1d   *cache.Cache
	l2    *cache.Cache
	tr    trace.Trace
	done  bool
	l1pf  prefetch.Prefetcher
	l2pf  prefetch.Prefetcher
	tempf prefetch.Prefetcher
	// llcObs and accObs are tempf when it watches LLC data accesses and
	// when it consumes epoch accuracy, resolved once at construction; nil
	// otherwise.
	llcObs prefetch.LLCDataObserver
	accObs prefetch.AccuracyConsumer

	reqBuf []prefetch.Request

	// recs is tr's latest run, valid until tr's next call; pos its next unread record.
	recs []trace.Record
	pos  int

	// epoch accuracy feedback for the temporal prefetcher
	lastFills, lastUseful uint64

	issued uint64 // prefetches issued by all of this core's prefetchers
	// issuedBy/droppedBy attribute issue and duplicate-drop counts to the
	// issuing prefetcher (lifecycle attribution). Kept on unconditionally —
	// plain increments on paths that already update several statistics.
	issuedBy  [cache.NumSources]uint64
	droppedBy [cache.NumSources]uint64

	warmBase snapshot
	measured bool
	final    snapshot

	// tel carries this core's "sim"-component telemetry events (accuracy
	// epochs); nil when telemetry is off.
	tel *telemetry.Emitter
	// interval-sampler state: the next cumulative instruction count to
	// sample at, the previous sample's snapshot, and the sample sequence
	// number.
	nextSample uint64
	lastSample snapshot
	sampleSeq  int
}

// System is a constructed simulator instance.
type System struct {
	cfg    Config
	cores  []*coreState
	llc    *cache.Cache
	dram   *dram.DRAM
	bridge []*llcBridge

	// sinceScan counts trace records since the last periodic audit scan.
	sinceScan uint64
}

// llcBridge adapts the shared LLC to one core's metadata store, interleaving
// metadata sets across cores so multi-core prefetchers do not collide.
type llcBridge struct {
	llc    *cache.Cache
	dram   *dram.DRAM
	offset int
	stride int
	// dedicated suppresses capacity reservation (Triangel-Ideal).
	dedicated bool
}

// MetaAccess implements meta.Bridge: metadata reads/writes contend for the
// LLC port and pay its latency.
func (b *llcBridge) MetaAccess(now uint64, kind mem.Kind) uint64 {
	d := b.llc.PortDelay(now, false)
	b.llc.CountMeta(kind)
	return d + b.llc.Latency()
}

// ReserveWays implements meta.Bridge. Dirty data flushed by a repartition is
// written back to DRAM immediately (traffic accounting).
func (b *llcBridge) ReserveWays(set, ways int) {
	if b.dedicated {
		return
	}
	phys := set*b.stride + b.offset
	_, dirty := b.llc.Reserve(phys, ways)
	for i := 0; i < dirty; i++ {
		b.dram.Write(0, mem.Line(phys))
	}
}

// Geometry implements meta.Bridge.
func (b *llcBridge) Geometry() (int, int) {
	return b.llc.Sets() / b.stride, b.llc.Ways()
}

// New constructs a system; traces are attached per core with SetTrace or by
// Run/RunMix.
func New(cfg Config) *System {
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	llcCfg := cfg.LLC
	llcCfg.Sets *= cfg.Cores
	s := &System{
		cfg:  cfg,
		llc:  cache.New(llcCfg),
		dram: dram.New(cfg.DRAM),
	}
	col := cfg.Telemetry
	s.llc.SetTelemetry(col.Emitter("LLC", -1))
	s.dram.SetTelemetry(col.Emitter("dram", -1))
	if col != nil && cfg.Audit != nil && cfg.Audit.OnViolation == nil {
		// Mirror invariant violations into the event trace so a telemetry
		// file is self-contained evidence of a broken run.
		cfg.Audit.OnViolation = func(v audit.Violation) {
			col.Eventf(v.Cycle, -1, v.Component, "audit-"+v.Rule, telemetry.Warn, "%s", v.Detail)
		}
	}
	for c := 0; c < cfg.Cores; c++ {
		cs := &coreState{
			id:     c,
			core:   cpu.New(cfg.CPU),
			l1d:    cache.New(cfg.L1D),
			l2:     cache.New(cfg.L2),
			reqBuf: make([]prefetch.Request, 0, 16),
			l1pf:   prefetch.Nil{},
			l2pf:   prefetch.Nil{},
			tempf:  prefetch.Nil{},
		}
		if cfg.Audit != nil {
			cs.core.SetAuditor(cfg.Audit)
		}
		cs.tel = col.Emitter("sim", c)
		cs.l1d.SetTelemetry(col.Emitter("L1D", c))
		cs.l2.SetTelemetry(col.Emitter("L2", c))
		if cfg.L1DPrefetcher != nil {
			cs.l1pf = cfg.L1DPrefetcher()
		}
		if cfg.L2Prefetcher != nil {
			cs.l2pf = cfg.L2Prefetcher()
		}
		if cfg.Temporal != nil {
			b := &llcBridge{
				llc: s.llc, dram: s.dram,
				offset: c, stride: cfg.Cores,
				dedicated: cfg.DedicatedMetadata,
			}
			s.bridge = append(s.bridge, b)
			cs.tempf = cfg.Temporal(b)
		} else if cfg.TemporalDRAM != nil {
			cs.tempf = cfg.TemporalDRAM(s.dram)
		}
		cs.llcObs, _ = cs.tempf.(prefetch.LLCDataObserver)
		cs.accObs, _ = cs.tempf.(prefetch.AccuracyConsumer)
		if sp, ok := cs.tempf.(storeProvider); ok {
			if st := sp.Store(); st != nil {
				st.SetTelemetry(col.Emitter("meta", c))
			}
		}
		s.cores = append(s.cores, cs)
	}
	return s
}

// SetTrace attaches a trace to a core. The core rewinds the trace at its end,
// so it stays busy until every core completes its measured instructions.
func (s *System) SetTrace(core int, tr trace.Trace) {
	if core < 0 || core >= len(s.cores) {
		panic(fmt.Sprintf("sim: core %d out of range", core))
	}
	cs := s.cores[core]
	cs.tr, cs.recs, cs.pos = tr, nil, 0
}

// LLC exposes the shared LLC (diagnostics and tests).
func (s *System) LLC() *cache.Cache { return s.llc }

// DRAM exposes the memory model (diagnostics and tests).
func (s *System) DRAM() *dram.DRAM { return s.dram }

// TemporalOf returns a core's temporal prefetcher (nil interface when none
// is configured); experiments use it to read prefetcher-internal statistics
// after a run.
func (s *System) TemporalOf(core int) prefetch.Prefetcher {
	return s.cores[core].tempf
}
