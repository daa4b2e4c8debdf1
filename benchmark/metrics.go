package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// This file is the benchmark's single table of names: the five workloads,
// the end-to-end metrics with their regression bounds, and the per-layer
// metrics with the end-to-end metric each should move. BENCHMARK.json at the
// repository root is generated from it (`go run ./benchmark -manifest`), and
// a test checks the two agree.

// runSeconds is how long one driver run measures.
const runSeconds = 20

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"sim-irregular-1c", "streamline/triangel/triage on sphinx06, mcf06, bfs: the metadata path (meta.Store, Train, partition resizes) does most of the work"},
	{"sim-regular-1c", "temporal=none over six L1/L2 prefetcher pairs on regular workloads: bypasses meta, so a metadata change predicts no change here"},
	{"sim-mix-4c", "4-core mixes with streamline and triangel: shared LLC stripes, DRAM contention and the engine's multi-core scheduler"},
	{"sweep-micro", "exp.Runner at micro scale with a checkpoint store: cold passes write, memo and resume passes only read, so the harness does the work"},
	{"serve-mixed", "in-process streamd under a closed loop of nproc keep-alive clients: cold, LRU, store-tier and 90/10 mixed traffic with LRU churn"},
}

// metricDef is one metric. Bound is set for end-to-end metrics only. A
// per-layer metric is named after the module it measures, and Moves and On
// say which end-to-end metric it should move and on which workload; the traced
// report prints them beside the value.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
	On     string
}

// End-to-end metrics. Every workload reports every one of them; what a
// "result" is per workload is defined in README.md. Simulated metrics
// (sim_*) repeat exactly for a seed; everything else is host time or host
// allocation.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "host_ns_per_record", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_record", Unit: "count", Better: "lower", Bound: 0.25},
	{Name: "alloc_bytes_per_record", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "sim_speedup_geomean", Unit: "ratio", Better: "higher", Bound: 0.06},
	{Name: "repeat_us_per_result", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "restart_us_per_result", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "results_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// simAliases are the end-to-end metrics that on the sim-* workloads restate
// host_ns_per_record in another unit: streamsim keeps no results, so a
// result produced again — in this process or after a restart — costs a whole
// simulation. The contract wants every metric on every workload, so they are
// printed there, marked as aliases, and -repeat-check skips them so that one
// noisy number is not counted four times. (Timing system construction alone
// for restart_us_per_result was tried: it is a few milliseconds of
// allocation whose time the collector's state decides, and spread 5-52 %.)
var simAliases = map[string]bool{"repeat_us_per_result": true, "restart_us_per_result": true, "results_per_s": true}

// aliased reports whether metric restates host_ns_per_record on workload.
func aliased(workload, metric string) bool {
	return strings.HasPrefix(workload, "sim-") && simAliases[metric]
}

const (
	simAll   = "sim-*"
	simIrr   = "sim-irregular-1c, sim-mix-4c"
	simReg   = "sim-regular-1c"
	simRegMx = "sim-regular-1c, sim-mix-4c"
	hostNs   = "host_ns_per_record"
)

func layerMetrics(moves, on, unit, better string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: better, Moves: moves, On: on}
	}
	return out
}

// expIDs are the experiments of the sweep-micro workload, in run order. Every
// one is made of simulations the store can replay, so a memo or resume pass
// measures the harness and not a recomputation (table1, a pure metadata-store
// study, recomputes on every pass and is left out for that reason).
var expIDs = []string{"fig9", "fig10de", "fig10f", "fig11cd", "fig12a", "fig13b", "fig14", "fig15"}

// perLayer lists every per-layer metric, grouped by module.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var m []metricDef
	add := func(defs []metricDef) { m = append(m, defs...) }

	add(layerMetrics(hostNs, simReg, "ns", "lower", "workloads.gen_ns_per_record"))
	add(layerMetrics(hostNs, simReg, "count", "lower", "workloads.records_per_kinstr"))

	add(layerMetrics(hostNs, simRegMx, "ns", "lower",
		"cache.l1d.lookup_ns", "cache.l2.lookup_ns", "cache.llc.lookup_ns", "cache.fill_ns", "cache.reserve_ns"))
	add(layerMetrics(hostNs, simRegMx, "ratio", "higher",
		"cache.l1d.hit_rate", "cache.l2.hit_rate", "cache.llc.hit_rate"))
	add(layerMetrics(hostNs, simRegMx, "count", "lower",
		"cache.l2.accesses_per_record", "cache.llc.accesses_per_record"))
	add(layerMetrics(hostNs, simRegMx, "ratio", "lower", "cache.llc.unused_prefetch_share"))

	for _, p := range replacementPolicies {
		add(layerMetrics(hostNs, simReg, "ns", "lower", "replacement."+p+".victim_ns"))
	}
	add(layerMetrics(hostNs, simReg, "ns", "lower", "replacement.lru.touch_ns"))
	add(layerMetrics("none (exp fig13c only)", "-", "us", "lower", "replacement.oracle_replay_us_per_corr"))

	add(layerMetrics(hostNs, simRegMx, "ns", "lower", "dram.access_ns"))
	add(layerMetrics(hostNs, simRegMx, "count", "lower", "dram.reads_per_record", "dram.writes_per_record"))
	add(layerMetrics(hostNs, simRegMx, "ratio", "higher", "dram.row_hit_rate"))

	add(layerMetrics(hostNs, simAll, "ns", "lower", "cpu.mem_op_ns"))
	add(layerMetrics(hostNs, simAll, "count", "lower", "cpu.cycles_per_record"))

	add(layerMetrics(hostNs, simIrr, "ns", "lower",
		"meta.FTS.lookup_ns", "meta.RUW.lookup_ns", "meta.FTS.insert_ns", "meta.RUW.insert_ns"))
	add(layerMetrics(hostNs, simIrr, "us", "lower", "meta.resize_us"))
	add(layerMetrics(hostNs, simIrr, "ns", "lower", "meta.partition_tick_ns", "meta.bridge_access_ns"))
	add(layerMetrics("sim_speedup_geomean", simIrr, "ratio", "higher", "meta.trigger_hit_rate"))
	add(layerMetrics(hostNs, simIrr, "count", "lower", "meta.traffic_blocks_per_kinstr", "meta.resizes"))

	for _, e := range engines {
		add(layerMetrics(hostNs, e.on(), "ns", "lower", e.metric("train_ns")))
		add(layerMetrics(hostNs, e.on(), "count", "lower", e.metric("requests_per_train")))
	}
	for _, arm := range temporalArms {
		e := engineByName(arm)
		add(layerMetrics("sim_speedup_geomean", simIrr, "ratio", "higher",
			e.metric("accuracy"), e.metric("coverage")))
	}

	add(layerMetrics(hostNs, simAll, "ns", "lower", "sim.kernel_ns_per_record"))
	add(layerMetrics("host_ns_per_record (serve-mixed, sweep-micro)", "serve-mixed", "ms", "lower", "sim.new_ms"))
	add(layerMetrics(hostNs, "sim-mix-4c", "ns", "lower", "sim.sched_ns_per_record"))
	add(layerMetrics(hostNs, simAll, "ratio", "lower",
		"sim.epoch_overhead_ratio", "sim.audit_on_ratio", "sim.telemetry_on_ratio", "sim.trace_overhead_ratio"))
	add(layerMetrics(hostNs, simAll, "ratio", "higher", "sim.accounted_share"))

	for _, id := range expIDs {
		add(layerMetrics(hostNs, "sweep-micro", "s", "lower", "exp."+id+"_s"))
	}
	add(layerMetrics(hostNs, "sweep-micro", "count", "lower", "exp.sims_computed"))
	add(layerMetrics("repeat_us_per_result", "sweep-micro", "ms", "lower", "exp.render_ms"))

	add(layerMetrics("host_ns_per_record, results_per_s", "sweep-micro, serve-mixed", "count", "higher", "runner.jobs"))
	add(layerMetrics("host_ns_per_record, results_per_s", "sweep-micro, serve-mixed", "ms", "lower", "runner.attempt_mean_ms"))
	add(layerMetrics("host_ns_per_record, results_per_s", "sweep-micro, serve-mixed", "ratio", "higher", "runner.pool_busy_share"))
	add(layerMetrics("host_ns_per_record, results_per_s", "sweep-micro, serve-mixed", "count", "lower", "runner.retries"))

	add(layerMetrics("host_ns_per_record (persist)", "sweep-micro, serve-mixed", "us", "lower", "store.put_p50_us", "store.put_p90_us"))
	add(layerMetrics("restart_us_per_result", "sweep-micro, serve-mixed", "ns", "lower", "store.get_ns"))
	add(layerMetrics("restart_us_per_result", "sweep-micro, serve-mixed", "ms", "lower", "store.open_ms_per_krec"))
	add(layerMetrics("restart_us_per_result", "sweep-micro, serve-mixed", "B", "lower", "store.bytes_per_record"))

	add(layerMetrics("repeat_us_per_result", "serve-mixed", "us", "lower", "serve.decode_us", "serve.lookup_us"))
	add(layerMetrics("results_per_s", "serve-mixed", "us", "lower", "serve.queue_wait_us"))
	add(layerMetrics("host_ns_per_record", "serve-mixed", "ms", "lower", "serve.simulate_ms"))
	add(layerMetrics("host_ns_per_record", "serve-mixed", "us", "lower", "serve.marshal_us", "serve.persist_us"))
	add(layerMetrics("host_ns_per_record", "serve-mixed", "ms", "lower", "serve.cold_p50_ms", "serve.cold_p90_ms"))
	add(layerMetrics("repeat_us_per_result", "serve-mixed", "us", "lower", "serve.hit_p99_us"))
	add(layerMetrics("results_per_s", "serve-mixed", "count", "higher", "serve.memory_hits", "serve.store_hits", "serve.collapsed"))
	add(layerMetrics("results_per_s", "serve-mixed", "count", "lower", "serve.computed", "serve.rejected"))

	add(layerMetrics("none today (guard)", "serve-mixed", "us", "lower", "metrics.scrape_us"))
	return m
}

// replacementPolicies are the data-cache policies whose victim selection is
// batch-timed.
var replacementPolicies = []string{"lru", "srrip", "drrip", "ship", "hawkeye", "mockingjay"}

// engine names one prefetch engine and the Spec slot that selects it.
type engine struct {
	name string
	slot string // "l1", "l2" or "temporal"
}

// engines are the nine prefetch arms, each timed around its Train.
var engines = []engine{
	{"stride", "l1"}, {"berti", "l1"},
	{"ipcp", "l2"}, {"bingo", "l2"}, {"spp", "l2"},
	{"triage", "temporal"}, {"triangel", "temporal"}, {"stms", "temporal"},
	{"streamline", "temporal"},
}

// temporalArms are the arms whose accuracy and coverage are reported.
var temporalArms = []string{"streamline", "triangel", "triage"}

func engineByName(name string) engine {
	for _, e := range engines {
		if e.name == name {
			return e
		}
	}
	panic("benchmark: unknown engine " + name)
}

// layer is the module that implements the engine: Streamline lives in
// internal/core, every other arm under internal/prefetch.
func (e engine) layer() string {
	if e.name == "streamline" {
		return "core"
	}
	return "prefetch"
}

func (e engine) metric(suffix string) string {
	return e.layer() + "." + e.name + "." + suffix
}

// on is the workload where the engine's cost should show.
func (e engine) on() string {
	if e.slot == "temporal" {
		return simIrr
	}
	return simReg
}

// manifest renders BENCHMARK.json.
func manifest() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return append(out, '\n')
}

// values is one run's metric values by name.
type values map[string]float64

// checkComplete reports the metrics of defs that vals lacks and the names
// in vals that defs does not list.
func checkComplete(defs []metricDef, vals values) error {
	var missing, extra []string
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		if _, ok := vals[d.Name]; !ok {
			missing = append(missing, d.Name)
		}
	}
	for name := range vals {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) > 0 {
		return fmt.Errorf("metric set mismatch: missing [%s], unlisted [%s]",
			strings.Join(missing, " "), strings.Join(extra, " "))
	}
	return nil
}
