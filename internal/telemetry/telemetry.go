// Package telemetry is the simulator's opt-in observability layer: an
// interval sampler that turns the hierarchy's cumulative counters into a
// per-core time series, and a structured event trace for discrete
// occurrences (metadata resizes, accuracy-epoch deliveries, MSHR-full
// stalls, DRAM row conflicts, audit violations). Both go to one bounded,
// severity-filtered JSONL sink per simulation, written from the goroutine
// that runs it.
//
// The design constraints mirror internal/audit's, in order:
//
//  1. Telemetry must never perturb the simulation. Every sample is computed
//     from counters the simulator already maintains, so an instrumented run
//     produces a byte-identical Result to an uninstrumented one.
//  2. Disabled telemetry must cost (near) nothing. A nil Collector or
//     Emitter reduces every hook to a nil check and a branch.
//  3. Output must be deterministic. Records are emitted in simulation order
//     from a single goroutine, floats serialize via encoding/json's
//     shortest round-trip form, and the closing summary sorts its keys, so
//     two runs with the same seed emit byte-identical JSONL.
package telemetry

import (
	"fmt"
	"io"
)

// Severity classifies event records so high-frequency detail (MSHR stalls,
// row conflicts) can be filtered out without losing the rare structural
// events (resizes, audit violations).
type Severity uint8

const (
	// Debug marks high-frequency microarchitectural events.
	Debug Severity = iota
	// Info marks structural events worth seeing by default.
	Info
	// Warn marks events that indicate something is wrong (audit violations).
	Warn
)

// String returns the lowercase severity name.
func (s Severity) String() string {
	switch s {
	case Debug:
		return "debug"
	case Info:
		return "info"
	case Warn:
		return "warn"
	}
	return fmt.Sprintf("severity(%d)", uint8(s))
}

// ParseSeverity converts a flag value into a Severity.
func ParseSeverity(s string) (Severity, error) {
	switch s {
	case "debug":
		return Debug, nil
	case "info":
		return Info, nil
	case "warn":
		return Warn, nil
	}
	return Info, fmt.Errorf("telemetry: unknown severity %q (want debug, info or warn)", s)
}

// EventRecord is one discrete event in the JSONL trace.
type EventRecord struct {
	Type string `json:"type"` // always "event"
	// Cycle is the core cycle the event occurred at.
	Cycle uint64 `json:"cycle"`
	// Core is the reporting core, or -1 for shared components (LLC, DRAM).
	Core int `json:"core"`
	// Component names the structure that emitted the event ("L1D", "L2",
	// "LLC", "dram", "meta", "sim"), matching the audit subsystem's names.
	Component string `json:"component"`
	// Event is the short event name ("mshr-full", "row-conflict", "resize",
	// "accuracy-epoch", "audit-<rule>").
	Event    string `json:"event"`
	Severity string `json:"severity"`
	Detail   string `json:"detail,omitempty"`
}

// IntervalRecord is one per-core sample of the interval time series. Fields
// under Cum are cumulative over the measured phase and monotonically
// non-decreasing; everything else is an interval delta or an instantaneous
// occupancy.
type IntervalRecord struct {
	Type string `json:"type"` // always "interval"
	Core int    `json:"core"`
	// Seq numbers this core's samples from 0.
	Seq int `json:"seq"`
	// Instructions and Cycles are cumulative measured-phase counts.
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`

	// IPC and the MPKI/accuracy figures below cover this interval only.
	IPC        float64 `json:"ipc"`
	L1DMPKI    float64 `json:"l1dMpki"`
	L2MPKI     float64 `json:"l2Mpki"`
	PFAccuracy float64 `json:"pfAccuracy"`
	// PFCoverage is useful prefetches over useful plus remaining L2 demand
	// misses in the interval (the fraction of would-be misses covered).
	PFCoverage float64 `json:"pfCoverage"`
	// PFLateRate is the fraction of the interval's useful prefetches whose
	// fill was still in flight when the demand arrived.
	PFLateRate float64 `json:"pfLateRate"`

	LLC  LLCSample  `json:"llc"`
	DRAM DRAMSample `json:"dram"`
	Meta MetaSample `json:"meta"`

	// Prefetchers is the per-source lifecycle attribution for the interval.
	Prefetchers []PrefetcherSample `json:"prefetchers,omitempty"`

	Cum CumSample `json:"cum"`
}

// LLCSample is the shared LLC's state: an instantaneous occupancy split plus
// the interval demand hit rate. Occupancies are whole-LLC (shared across
// cores); interval counters are deltas over this core's sample window.
type LLCSample struct {
	// DemandLines counts valid lines last touched by demand; PrefetchLines
	// counts prefetched lines not yet referenced; MetaBlocks counts way
	// slots reserved for temporal-prefetcher metadata partitions.
	DemandLines   int     `json:"demandLines"`
	PrefetchLines int     `json:"prefetchLines"`
	MetaBlocks    int     `json:"metaBlocks"`
	DemandHitRate float64 `json:"demandHitRate"`
}

// DRAMSample is the memory system's interval activity (shared; deltas over
// this core's sample window).
type DRAMSample struct {
	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`
	// BytesPerCycle is line transfers times 64B over the interval's core
	// cycles — the observed bandwidth in bytes per core cycle.
	BytesPerCycle float64 `json:"bytesPerCycle"`
	RowHitRate    float64 `json:"rowHitRate"`
}

// MetaSample is the core's temporal-prefetcher metadata activity for the
// interval (zero when no temporal prefetcher is configured).
type MetaSample struct {
	// Traffic is metadata blocks moved to/from the LLC in the interval,
	// including rearrangement traffic.
	Traffic        uint64  `json:"traffic"`
	Lookups        uint64  `json:"lookups"`
	TriggerHitRate float64 `json:"triggerHitRate"`
	Resizes        uint64  `json:"resizes"`
	// OccupancyEntries and SizeBytes are instantaneous store state.
	OccupancyEntries int `json:"occupancyEntries"`
	SizeBytes        int `json:"sizeBytes"`
}

// PrefetcherSample is one prefetcher's interval lifecycle breakdown.
type PrefetcherSample struct {
	// Source is "l1", "l2" or "temporal".
	Source           string  `json:"source"`
	Issued           uint64  `json:"issued"`
	DroppedDuplicate uint64  `json:"droppedDuplicate"`
	Fills            uint64  `json:"fills"`
	UsefulTimely     uint64  `json:"usefulTimely"`
	UsefulLate       uint64  `json:"usefulLate"`
	EvictedUnused    uint64  `json:"evictedUnused"`
	Accuracy         float64 `json:"accuracy"`
}

// CumSample carries cumulative measured-phase counters; every field is
// monotonically non-decreasing across a core's records.
type CumSample struct {
	L1DMisses        uint64 `json:"l1dMisses"`
	L2Misses         uint64 `json:"l2Misses"`
	PrefetchesIssued uint64 `json:"prefetchesIssued"`
	PrefetchFills    uint64 `json:"prefetchFills"`
	UsefulPrefetches uint64 `json:"usefulPrefetches"`
	DRAMReads        uint64 `json:"dramReads"`
	DRAMWrites       uint64 `json:"dramWrites"`
	MetaTraffic      uint64 `json:"metaTraffic"`
}

// Collector is one run's telemetry instance, threaded through sim.Config.
// A nil Collector disables everything; all methods are nil-safe.
type Collector struct {
	sink     *Sink
	interval uint64
	keep     bool
	records  []IntervalRecord
}

// New returns a Collector sampling every interval measured instructions per
// core, writing to sink. sink may be nil (timeline-only use); interval zero
// disables interval sampling (events still flow to the sink).
func New(sink *Sink, interval uint64) *Collector {
	return &Collector{sink: sink, interval: interval}
}

// SampleInterval returns the per-core instruction sampling interval (zero
// when sampling is disabled).
func (c *Collector) SampleInterval() uint64 {
	if c == nil {
		return 0
	}
	return c.interval
}

// KeepIntervals retains interval records in memory so Timeline can render
// them after the run.
func (c *Collector) KeepIntervals() {
	if c != nil {
		c.keep = true
	}
}

// RecordInterval emits one interval sample.
func (c *Collector) RecordInterval(r IntervalRecord) {
	if c == nil {
		return
	}
	r.Type = "interval"
	if c.keep {
		c.records = append(c.records, r)
	}
	c.sink.Interval(r)
}

// Intervals returns the retained interval records (KeepIntervals only).
func (c *Collector) Intervals() []IntervalRecord {
	if c == nil {
		return nil
	}
	return c.records
}

// WantEvent reports whether an event at the given severity would be
// recorded, so hot paths can skip formatting entirely.
func (c *Collector) WantEvent(sev Severity) bool {
	return c != nil && c.sink.wants(sev)
}

// Eventf records one event.
func (c *Collector) Eventf(cycle uint64, core int, component, event string, sev Severity, format string, args ...any) {
	if !c.WantEvent(sev) {
		return
	}
	c.sink.Event(EventRecord{
		Type:      "event",
		Cycle:     cycle,
		Core:      core,
		Component: component,
		Event:     event,
		Severity:  sev.String(),
		Detail:    fmt.Sprintf(format, args...),
	})
}

// Emitter returns an event emitter bound to a component and core, or nil
// when this collector has no event sink — so components hold a single
// pointer whose nil check is the entire disabled-path cost.
func (c *Collector) Emitter(component string, core int) *Emitter {
	if c == nil || c.sink == nil {
		return nil
	}
	return &Emitter{c: c, component: component, core: core}
}

// Close finalizes the sink (summary record and flush). Safe on nil and on
// sink-less collectors.
func (c *Collector) Close() error {
	if c == nil {
		return nil
	}
	return c.sink.Close()
}

// Timeline renders the retained interval records as an aligned ASCII table
// (one row per sample, grouped by emission order). KeepIntervals must have
// been called before the run.
func (c *Collector) Timeline(w io.Writer) {
	if c == nil {
		return
	}
	writeTimeline(w, c.interval, c.records)
}

// Emitter is a Collector handle pre-bound to one component and core.
// Components store a *Emitter that is nil when telemetry is off; both
// methods are nil-safe so call sites guard with Enabled alone.
type Emitter struct {
	c         *Collector
	component string
	core      int
}

// Enabled reports whether an event at sev would be recorded.
func (e *Emitter) Enabled(sev Severity) bool {
	return e != nil && e.c.WantEvent(sev)
}

// Eventf records one event from this emitter's component.
func (e *Emitter) Eventf(cycle uint64, sev Severity, event, format string, args ...any) {
	if e == nil {
		return
	}
	e.c.Eventf(cycle, e.core, e.component, event, sev, format, args...)
}
