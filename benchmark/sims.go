package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"streamline/internal/cache"
	"streamline/internal/check"
	"streamline/internal/dram"
	"streamline/internal/exp"
	"streamline/internal/serve"
	"streamline/internal/sim"
	"streamline/internal/workloads"
)

// This file is the three sim-* workloads: simulations built exactly the way
// cmd/streamsim builds them (serve.Spec.Config + NewSystem + the engine) and
// repeated until the run's time budget is spent.

// simJob is one simulation of a sim-* workload.
type simJob struct {
	label string
	spec  serve.Spec // normalized
	// mix assigns one workload per core for multi-programmed runs; nil
	// runs spec.Workload on every core.
	mix []string
	// base indexes the workload's baseline this job's speedup is taken
	// over; scored marks jobs that count toward sim_speedup_geomean.
	base   int
	scored bool
}

// simOutcome is one finished simulation.
type simOutcome struct {
	res     sim.Result
	records uint64 // trace records retired, warm-up included
	wall    time.Duration
	digest  string
}

// system builds the job's simulated system. With timers non-nil the
// prefetcher factories go through the timing decorators.
func (j simJob) system(timers **simTimers) (*sim.System, error) {
	cfg, err := j.spec.Config()
	if err != nil {
		return nil, err
	}
	if timers != nil {
		*timers = instrument(&cfg, j.spec.L1, j.spec.L2, j.spec.Temporal)
	}
	if j.mix == nil {
		return j.spec.NewSystem(cfg)
	}
	sys := sim.New(cfg)
	for c, name := range j.mix {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		sys.SetTrace(c, w.NewTrace(workloads.Scale{Footprint: j.spec.Footprint}, j.spec.Seed+int64(c)))
	}
	return sys, nil
}

// digestOf is the SHA-256 of a result's canonical JSON.
func digestOf(res sim.Result) string {
	doc, err := json.Marshal(res)
	if err != nil {
		panic(err) // sim.Result is plain counters
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:])
}

// run executes the job once, timing construction and simulation together as
// a streamsim user pays them. With t non-nil the run is traced: sim.New, each
// engine epoch and every Train/bridge call become spans under one sim span.
func (j simJob) run(t *tracer) (simOutcome, *simTimers, error) {
	start := time.Now()
	if t == nil {
		sys, err := j.system(nil)
		if err != nil {
			return simOutcome{}, nil, err
		}
		e := sys.Engine()
		res := e.Finish()
		wall := time.Since(start)
		return simOutcome{res: res, records: e.Progress().Records, wall: wall, digest: digestOf(res)}, nil, nil
	}
	root := t.begin("sim", j.label, -1)
	var timers *simTimers
	sNew := t.begin("sim.new", j.label, root)
	sys, err := j.system(&timers)
	t.end(sNew)
	if err != nil {
		return simOutcome{}, nil, err
	}
	e := sys.Engine()
	for !e.Done() {
		s := t.begin("sim.step", j.label, root)
		e.Step(sim.DefaultEpoch)
		t.end(s)
	}
	res := e.Finish()
	wall := time.Since(start)
	t.end(root)
	timers.flush(t, j.label, root)
	return simOutcome{res: res, records: e.Progress().Records, wall: wall, digest: digestOf(res)}, timers, nil
}

// lawViolations checks a result against the conservation laws. The sims of
// this benchmark keep their metadata on chip, so no metadata traffic reaches
// DRAM directly.
func lawViolations(res sim.Result) []string {
	return check.SimLaws(res, check.MetaDRAMTraffic{}, false)
}

// simWorkload is one sim-* workload: the jobs of a repetition and the
// baselines (run during set-up) their speedups are taken over.
type simWorkload struct {
	name      string
	baselines []simJob
	jobs      []simJob
}

func mustSpec(sp serve.Spec) serve.Spec {
	if err := sp.Normalize(); err != nil {
		panic(fmt.Sprintf("benchmark: bad built-in spec: %v", err))
	}
	return sp
}

// traceSeed derives a workload's trace seed from the run seed. Arms of one
// workload share it, so each is compared with a baseline over the same trace.
func traceSeed(seed int64, workloadIndex int) int64 {
	return seed*1000 + int64(workloadIndex) + 1
}

// budget returns the per-core instruction budgets, shrunk under -quick.
func (e *env) budget(warmup, measure uint64) (uint64, uint64) {
	if e.quick {
		return warmup / 20, measure / 20
	}
	return warmup, measure
}

func newSimIrregular(e *env) *simWorkload {
	w := &simWorkload{name: "sim-irregular-1c"}
	// Half of streamsim's default budgets: a repetition of the nine
	// simulations then takes under two seconds, so a run holds enough
	// repetitions for a median.
	warm, meas := e.budget(serve.DefaultWarmup/2, serve.DefaultMeasure/2)
	for wi, name := range []string{"sphinx06", "mcf06", "bfs"} {
		base := serve.Spec{Workload: name, L1: "stride", Temporal: "none",
			Warmup: warm, Measure: meas, Seed: traceSeed(e.seed, wi)}
		w.baselines = append(w.baselines, simJob{label: "none/" + name, spec: mustSpec(base), base: -1})
		for _, temporal := range []string{"streamline", "triangel", "triage"} {
			sp := base
			sp.Temporal = temporal
			w.jobs = append(w.jobs, simJob{label: temporal + "/" + name, spec: mustSpec(sp),
				base: wi, scored: temporal == "streamline"})
		}
	}
	return w
}

func newSimRegular(e *env) *simWorkload {
	w := &simWorkload{name: "sim-regular-1c"}
	warm, meas := e.budget(serve.DefaultWarmup, serve.DefaultMeasure)
	pairs := [][2]string{{"none", "none"}, {"stride", "none"}, {"berti", "none"},
		{"stride", "ipcp"}, {"stride", "bingo"}, {"stride", "spp"}}
	for wi, name := range []string{"libquantum06", "lbm17", "bzip206"} {
		for pi, p := range pairs {
			sp := mustSpec(serve.Spec{Workload: name, L1: p[0], L2: p[1], Temporal: "none",
				Warmup: warm, Measure: meas, Seed: traceSeed(e.seed, wi)})
			job := simJob{label: p[0] + "+" + p[1] + "/" + name, spec: sp, base: wi, scored: pi > 0}
			if pi == 0 {
				b := job
				b.base, b.scored = -1, false
				w.baselines = append(w.baselines, b)
			}
			w.jobs = append(w.jobs, job)
		}
	}
	return w
}

func newSimMix(e *env) *simWorkload {
	w := &simWorkload{name: "sim-mix-4c"}
	warm, meas := e.budget(200_000, 800_000)
	mix := []string{"sphinx06", "mcf06", "bfs", "libquantum06"}
	base := serve.Spec{Workload: mix[0], Cores: len(mix), L1: "stride", Temporal: "none",
		Warmup: warm, Measure: meas, Seed: traceSeed(e.seed, 0)}
	w.baselines = []simJob{{label: "none/mix4", spec: mustSpec(base), mix: mix, base: -1}}
	for _, temporal := range []string{"streamline", "triangel"} {
		sp := base
		sp.Temporal = temporal
		w.jobs = append(w.jobs, simJob{label: temporal + "/mix4", spec: mustSpec(sp), mix: mix,
			base: 0, scored: temporal == "streamline"})
	}
	return w
}

// speedup is a job's IPC gain over its baseline: summed IPCs for a
// multi-core job, core 0's otherwise.
func speedup(base, res sim.Result) float64 {
	if len(res.Cores) > 1 {
		return exp.ThroughputSpeedup(base, res)
	}
	return exp.Speedup(base, res)
}

// runBaselines is the workload's set-up work.
func (w *simWorkload) runBaselines(e *env) ([]simOutcome, error) {
	out := make([]simOutcome, len(w.baselines))
	for i, b := range w.baselines {
		o, _, err := b.run(nil)
		if err != nil {
			return nil, err
		}
		out[i] = o
		e.cal.sample()
	}
	return out, nil
}

// checkSim counts one finished simulation as an operation: it fails when
// the result breaks a conservation law or differs from want, the digest an
// earlier run of the same spec produced ("" when this is the first).
func (o *ops) checkSim(label string, got simOutcome, want string) {
	if v := lawViolations(got.res); len(v) > 0 {
		o.add(false, "%s: %s", label, v[0])
		return
	}
	o.add(want == "" || got.digest == want, "%s: digest %s differs from an earlier run's %s", label, got.digest, want)
}

// untraced measures the workload's end-to-end metrics.
func (w *simWorkload) untraced(e *env) (report, error) {
	var rep report
	// The baselines take a fraction of a second, so five set-ups are cheap,
	// and a median of five is steadier than one of three.
	bases, setupS, err := setupMedian(5, func() ([]simOutcome, error) { return w.runBaselines(e) })
	if err != nil {
		return rep, err
	}
	for i, b := range bases {
		rep.ops.checkSim(w.baselines[i].label, b, "")
	}

	n := len(w.jobs)
	walls := make([][]float64, n) // per job, per repetition, seconds
	first := make([]simOutcome, n)
	var repMallocs, repBytes []float64
	reps, err := repeatFor(e.budgetDuration(), 2, func(r int) error {
		runtime.GC()
		m0 := readMem()
		for i, j := range w.jobs {
			o, _, err := j.run(nil)
			if err != nil {
				return err
			}
			if r == 0 {
				first[i] = o
				rep.ops.checkSim(j.label, o, "")
			} else {
				rep.ops.checkSim(j.label, o, first[i].digest)
			}
			walls[i] = append(walls[i], o.wall.Seconds())
			e.cal.sample()
		}
		d := readMem().since(m0)
		repMallocs = append(repMallocs, float64(d.mallocs))
		repBytes = append(repBytes, float64(d.bytes))
		return nil
	})
	if err != nil {
		return rep, err
	}

	// A job's steady time is the median over every repetition but the
	// first, which also pays a fresh process's heap growth and page faults.
	var steady float64
	var records uint64
	var speedups []float64
	digests := make([][]byte, n)
	for i, j := range w.jobs {
		steady += medianOf(walls[i][1:])
		records += first[i].records
		digests[i] = []byte(first[i].digest)
		if j.scored {
			speedups = append(speedups, speedup(bases[j.base].res, first[i].res))
		}
		if j.base >= 0 && j.spec == w.baselines[j.base].spec {
			// The measured set repeats a baseline: the two runs must agree.
			rep.ops.add(first[i].digest == bases[j.base].digest,
				"%s: measured digest differs from its set-up run", j.label)
		}
	}
	rep.vals = values{
		"setup_s":                setupS,
		"host_ns_per_record":     steady * 1e9 / float64(records),
		"allocs_per_record":      medianOf(repMallocs[1:]) / float64(records),
		"alloc_bytes_per_record": medianOf(repBytes[1:]) / float64(records),
		"sim_speedup_geomean":    exp.Geomean(speedups),
		// streamsim keeps no results, so producing one again — in this
		// process or the next — costs a whole simulation: the three metrics
		// below restate host_ns_per_record per result (simAliases), and
		// -repeat-check counts it once.
		"repeat_us_per_result":  steady * 1e6 / float64(n),
		"restart_us_per_result": steady * 1e6 / float64(n),
		"results_per_s":         float64(n) / steady,
	}
	rep.digest = hashAll(digests)
	rep.info = []string{
		fmt.Sprintf("repetitions=%d sims_per_repetition=%d records_per_repetition=%d", reps, n, records),
		fmt.Sprintf("samples: per-sim times=%d (first repetition discarded), set-ups=5", reps-1),
	}
	return rep, nil
}

// simCounts accumulates the exact simulated counts the per-layer ratios are
// built from, over any number of results.
type simCounts struct {
	records      float64
	instructions float64
	cycles       float64
	l1d, l2, llc cache.Stats
	dram         dram.Stats
	// metadata store activity, summed over cores
	metaLookups, metaTriggerHits, metaTraffic, metaResizes float64
}

func addStats(a *cache.Stats, b cache.Stats) {
	a.DemandAccesses += b.DemandAccesses
	a.DemandHits += b.DemandHits
	a.DemandMisses += b.DemandMisses
	a.PrefetchAccesses += b.PrefetchAccesses
	a.PrefetchHits += b.PrefetchHits
	a.PrefetchFills += b.PrefetchFills
	a.UsefulPrefetches += b.UsefulPrefetches
	a.UnusedPrefetches += b.UnusedPrefetches
}

// add folds one result in. records is the result's retired trace records
// when known; 0 estimates them from the measured window's L1D demand
// accesses (one per record) scaled to the whole run.
func (c *simCounts) add(res sim.Result, records float64, warmup, measure uint64) {
	var measured float64
	for _, cr := range res.Cores {
		c.instructions += float64(cr.Instructions)
		c.cycles += float64(cr.Cycles)
		measured += float64(cr.L1D.DemandAccesses)
		addStats(&c.l1d, cr.L1D)
		addStats(&c.l2, cr.L2)
		c.metaLookups += float64(cr.Meta.Lookups)
		c.metaTriggerHits += float64(cr.Meta.TriggerHits)
		c.metaTraffic += float64(cr.Meta.Traffic())
		c.metaResizes += float64(cr.Meta.Resizes)
	}
	addStats(&c.llc, res.LLC)
	c.dram.Reads += res.DRAM.Reads
	c.dram.Writes += res.DRAM.Writes
	c.dram.RowHits += res.DRAM.RowHits
	c.dram.RowMisses += res.DRAM.RowMisses
	c.dram.RowConflicts += res.DRAM.RowConflicts
	if records > 0 {
		c.records += records
	} else if measure > 0 {
		c.records += measured * float64(warmup+measure) / float64(measure)
	}
}

// fill writes the count-derived per-layer metrics. The private levels'
// counters cover each core's measured window and the shared LLC and DRAM the
// whole run, so the per-record ratios divide by the records of the same span.
func (c *simCounts) fill(out values) {
	measured := float64(c.l1d.DemandAccesses)
	out["cache.l1d.hit_rate"] = c.l1d.DemandHitRate()
	out["cache.l2.hit_rate"] = c.l2.DemandHitRate()
	out["cache.llc.hit_rate"] = c.llc.DemandHitRate()
	out["cache.l2.accesses_per_record"] = ratio(float64(c.l2.DemandAccesses+c.l2.PrefetchAccesses), measured)
	out["cache.llc.accesses_per_record"] = ratio(float64(c.llc.DemandAccesses+c.llc.PrefetchAccesses), c.records)
	out["cache.llc.unused_prefetch_share"] = ratio(float64(c.llc.UnusedPrefetches), float64(c.llc.PrefetchFills))
	out["dram.reads_per_record"] = ratio(float64(c.dram.Reads), c.records)
	out["dram.writes_per_record"] = ratio(float64(c.dram.Writes), c.records)
	out["dram.row_hit_rate"] = c.dram.RowHitRate()
	out["cpu.cycles_per_record"] = ratio(c.cycles, measured)
	out["meta.trigger_hit_rate"] = ratio(c.metaTriggerHits, c.metaLookups)
	out["meta.traffic_blocks_per_kinstr"] = ratio(c.metaTraffic*1000, c.instructions)
	out["meta.resizes"] = c.metaResizes
}

// traced runs the job set once untraced and once through the decorators,
// requires the two to agree result for result, and returns the traced/
// untraced wall ratio with the set's simulated counts.
func (w *simWorkload) traced(e *env, t *tracer, out values) (report, error) {
	var rep report
	var counts simCounts
	var plain, decorated time.Duration
	digests := make([][]byte, len(w.jobs))
	for i, j := range w.jobs {
		o, _, err := j.run(nil)
		if err != nil {
			return rep, err
		}
		rep.ops.checkSim(j.label, o, "")
		to, _, err := j.run(t)
		if err != nil {
			return rep, err
		}
		rep.ops.checkSim(j.label+" (traced)", to, o.digest)
		plain += o.wall
		decorated += to.wall
		digests[i] = []byte(to.digest)
		counts.add(o.res, float64(o.records), j.spec.Warmup, j.spec.Measure)
		e.cal.sample()
	}
	counts.fill(out)
	out["sim.trace_overhead_ratio"] = ratio(decorated.Seconds(), plain.Seconds())
	rep.digest = hashAll(digests)
	rep.info = []string{fmt.Sprintf("traced repetition: %d sims, untraced %.2fs, traced %.2fs",
		len(w.jobs), plain.Seconds(), decorated.Seconds())}
	return rep, nil
}

// probeJob is the simulation the layer probes take their record stream and
// geometry from: the workload's first job.
func (w *simWorkload) probeJob() simJob { return w.jobs[0] }

// addDoc folds one streamd response document in; records is its
// simulation's retired trace records.
func (c *simCounts) addDoc(doc serve.Result, records float64) {
	res := sim.Result{LLC: doc.LLC, DRAM: doc.DRAM}
	for _, cr := range doc.CoreResults {
		res.Cores = append(res.Cores, sim.CoreResult{Instructions: cr.Instructions, Cycles: cr.Cycles,
			L1D: cr.L1D, L2: cr.L2, Meta: cr.Meta})
	}
	c.add(res, records, 0, 0)
}
