package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"streamline/internal/audit"
	"streamline/internal/cache"
	"streamline/internal/cpu"
	"streamline/internal/dram"
	"streamline/internal/exp"
	"streamline/internal/exp/store"
	"streamline/internal/mem"
	"streamline/internal/meta"
	"streamline/internal/replacement"
	"streamline/internal/serve"
	"streamline/internal/sim"
	"streamline/internal/telemetry"
	"streamline/internal/trace"
	"streamline/internal/workloads"
)

// This file is the traced run's layer probes. Calls too short to span
// (cache, replacement, dram, cpu, meta.Store, trace generation) are
// batch-timed: the probe materialises a workload's records, derives each
// level's operation stream by chaining standalone caches (L1 misses feed the
// L2, L2 misses feed the LLC and the metadata store, LLC misses feed DRAM),
// and replays each stream through the layer's public functions in a tight
// loop. Prefetcher Train costs come from decorated simulations, and the
// simulator's own overheads from paired runs with one feature switched.

// probeRounds is how many times each batch-timed loop runs; the median
// round is reported.
const probeRounds = 3

// nsPerOp times run (prepared untimed by prepare, which also says how many
// operations it performs) probeRounds times and returns the median ns/op.
func nsPerOp(prepare func() (ops int, run func())) float64 {
	xs := make([]float64, probeRounds)
	for i := range xs {
		n, run := prepare()
		t := time.Now()
		run()
		xs[i] = float64(time.Since(t)) / float64(max(n, 1))
	}
	return medianOf(xs)
}

// probeInput is what the probes replay: a single-core variant of the
// workload's probe job, its configuration and its materialised records.
type probeInput struct {
	spec  serve.Spec
	cfg   sim.Config
	recs  []trace.Record
	instr uint64
}

// probeInstructions caps the instructions the probes replay. They replay
// each stream several times, and this much keeps a traced run inside its
// time box; the serving and sweep simulations are shorter and replay whole.
const probeInstructions = 200_000

// materialize generates the records a single-core run of the job's first
// workload retires, with the job's budgets scaled down to probeInstructions
// when they are larger.
func materialize(j simJob) (probeInput, error) {
	sp := j.spec
	sp.Cores = 1
	if len(j.mix) > 0 {
		sp.Workload = j.mix[0]
	}
	if total := sp.Warmup + sp.Measure; total > probeInstructions {
		sp.Warmup = sp.Warmup * probeInstructions / total
		sp.Measure = probeInstructions - sp.Warmup
	}
	in := probeInput{spec: sp}
	var err error
	if in.cfg, err = sp.Config(); err != nil {
		return in, err
	}
	tr, err := generator(sp)
	if err != nil {
		return in, err
	}
	for in.instr < sp.Warmup+sp.Measure {
		rec, ok := tr.Next()
		if !ok {
			break
		}
		in.recs = append(in.recs, rec)
		in.instr += rec.Instructions()
	}
	return in, nil
}

func generator(sp serve.Spec) (trace.Trace, error) {
	w, err := workloads.Get(sp.Workload)
	if err != nil {
		return nil, err
	}
	return w.NewTrace(workloads.Scale{Footprint: sp.Footprint}, sp.Seed), nil
}

// opStreams are the per-level operation streams derived from the records.
type opStreams struct {
	l1, l2, llc []mem.Access
	dramLines   []mem.Line // LLC misses
	l2Miss      []mem.Line // what a temporal prefetcher trains on
}

// trainingLines is the line stream the replacement and metadata probes
// replay: the L2 misses, or every accessed line when a small regular run
// misses the L2 too rarely to time anything.
func trainingLines(s opStreams) []mem.Line {
	if len(s.l2Miss) >= 1024 {
		return s.l2Miss
	}
	lines := make([]mem.Line, len(s.l1))
	for i, a := range s.l1 {
		lines[i] = a.Line()
	}
	return lines
}

func accessOf(r trace.Record) mem.Access {
	kind := mem.Load
	if r.IsWrite {
		kind = mem.Store
	}
	return mem.Access{PC: r.PC, Addr: r.Addr, Kind: kind}
}

// cyclesPerRecord spaces the replayed operations in simulated time.
const cyclesPerRecord = 4

func deriveStreams(in probeInput) opStreams {
	var s opStreams
	l1, l2, llc := cache.New(in.cfg.L1D), cache.New(in.cfg.L2), cache.New(in.cfg.LLC)
	var now uint64
	for _, r := range in.recs {
		now += cyclesPerRecord
		a := accessOf(r)
		s.l1 = append(s.l1, a)
		if l1.Lookup(now, a).Hit {
			continue
		}
		s.l2 = append(s.l2, a)
		if !l2.Lookup(now, a).Hit {
			s.l2Miss = append(s.l2Miss, a.Line())
			s.llc = append(s.llc, a)
			if !llc.Lookup(now, a).Hit {
				s.dramLines = append(s.dramLines, a.Line())
				llc.Fill(a, now, cache.SrcDemand)
			}
			l2.Fill(a, now, cache.SrcDemand)
		}
		l1.Fill(a, now, cache.SrcDemand)
	}
	return s
}

// lookupBlock is how many lookups are timed together. Lookups and fills
// cannot be timed one by one — a clock read costs more than either — and
// cannot be separated by subtraction, because whichever runs first pays the
// host's cache misses for the set. So a level's stream is replayed in
// blocks: a block's lookups are timed as one interval, then the fills its
// misses cause as another.
const lookupBlock = 64

// blockedWalk replays stream through a fresh cache of shape cc and returns
// the host time spent in Lookup and in Fill (clock reads subtracted) with
// the number of fills, from the median round by lookup time.
func blockedWalk(cc cache.Config, stream []mem.Access, clockNs float64) (lookupNs, fillNs float64, fills int) {
	type round struct {
		lookup, fill float64
		fills        int
	}
	rounds := make([]round, probeRounds)
	hit := make([]bool, lookupBlock)
	for r := range rounds {
		c := cache.New(cc)
		var now uint64
		var lookup, fill time.Duration
		var blocks, filled int
		for lo := 0; lo < len(stream); lo += lookupBlock {
			block := stream[lo:min(lo+lookupBlock, len(stream))]
			now += cyclesPerRecord * lookupBlock
			t0 := time.Now()
			for i, a := range block {
				hit[i] = c.Lookup(now, a).Hit
			}
			t1 := time.Now()
			for i, a := range block {
				if !hit[i] {
					c.Fill(a, now, cache.SrcDemand)
					filled++
				}
			}
			fill += time.Since(t1)
			lookup += t1.Sub(t0)
			blocks++
		}
		overhead := float64(blocks) * clockNs
		rounds[r] = round{max(float64(lookup)-overhead, 0), max(float64(fill)-overhead, 0), filled}
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i].lookup < rounds[j].lookup })
	m := rounds[len(rounds)/2]
	return m.lookup, m.fill, m.fills
}

// probeCaches batch-times each level's Lookup, Fill over all three levels,
// and the LLC's metadata way reservation.
func probeCaches(in probeInput, s opStreams, clockNs float64, out values) {
	var fillNs float64
	var fills int
	for _, lvl := range []struct {
		name   string
		cc     cache.Config
		stream []mem.Access
	}{{"l1d", in.cfg.L1D, s.l1}, {"l2", in.cfg.L2, s.l2}, {"llc", in.cfg.LLC, s.llc}} {
		lookup, fill, n := blockedWalk(lvl.cc, lvl.stream, clockNs)
		out["cache."+lvl.name+".lookup_ns"] = ratio(lookup, float64(len(lvl.stream)))
		fillNs += fill
		fills += n
	}
	out["cache.fill_ns"] = ratio(fillNs, float64(fills))
	out["cache.reserve_ns"] = nsPerOp(func() (int, func()) {
		c := cache.New(in.cfg.LLC)
		for _, a := range s.llc {
			c.Fill(a, 0, cache.SrcDemand)
		}
		sets := c.Sets()
		return 2 * sets, func() {
			for set := 0; set < sets; set++ {
				c.Reserve(set, 8)
			}
			for set := 0; set < sets; set++ {
				c.Reserve(set, 0)
			}
		}
	})
}

// probeReplacement batch-times each policy's victim selection (with the
// evict and fill that always follow it) on a full LLC-shaped structure, LRU's
// hit update, and the offline oracles on a 20k-correlation stream.
func probeReplacement(in probeInput, s opStreams, out values) {
	sets, ways := in.cfg.LLC.Sets, in.cfg.LLC.Ways
	lines := trainingLines(s)
	access := func(i int) (int, replacement.Access) {
		l := lines[i%len(lines)]
		return int(uint64(l) & uint64(sets-1)), replacement.Access{PC: mem.PC(i & 63), Line: l}
	}
	n := len(lines)
	full := func(name string) replacement.Policy {
		p := replacement.Factories[name](sets, ways)
		for set := 0; set < sets; set++ {
			for w := 0; w < ways; w++ {
				p.Fill(set, w, replacement.Access{Line: mem.Line(set + w*sets)})
			}
		}
		return p
	}
	for _, name := range replacementPolicies {
		out["replacement."+name+".victim_ns"] = nsPerOp(func() (int, func()) {
			p := full(name)
			return n, func() {
				for i := 0; i < n; i++ {
					set, a := access(i)
					w := p.Victim(set, 0, a)
					p.Evict(set, w)
					p.Fill(set, w, a)
				}
			}
		})
	}
	out["replacement.lru.touch_ns"] = nsPerOp(func() (int, func()) {
		p := full("lru")
		return n, func() {
			for i := 0; i < n; i++ {
				set, a := access(i)
				p.Hit(set, i%ways, a)
			}
		}
	})
	corr := replacement.CorrelationsOf(lines[:min(len(lines), 20_001)])
	out["replacement.oracle_replay_us_per_corr"] = nsPerOp(func() (int, func()) {
		return 2 * len(corr), func() {
			replacement.ReplayOracle(corr, max(len(corr)/16, 1), replacement.MIN)
			replacement.ReplayOracle(corr, max(len(corr)/16, 1), replacement.TPMIN)
		}
	}) / 1e3
}

func probeDRAM(in probeInput, s opStreams, out values) {
	out["dram.access_ns"] = nsPerOp(func() (int, func()) {
		d := dram.New(in.cfg.DRAM)
		return len(s.dramLines), func() {
			var now uint64
			for _, l := range s.dramLines {
				now += 40
				d.Access(now, l, false)
			}
		}
	})
}

// probeCPU batch-times the core model's three calls per record, with a miss
// latency on every eighth record so the ROB fills and drains.
func probeCPU(in probeInput, out values) {
	out["cpu.mem_op_ns"] = nsPerOp(func() (int, func()) {
		c := cpu.New(in.cfg.CPU)
		return len(in.recs), func() {
			for i, r := range in.recs {
				c.Advance(r.Instructions())
				t := c.BeginMem(r.DependsOnPrev)
				lat := uint64(5)
				if i%8 == 7 {
					lat = 200
				}
				c.EndMem(t+lat, !r.IsWrite)
			}
		}
	})
}

// metaSchemes are the two ends of Table I: Streamline's filtered, tagged,
// set-partitioned store and the rearranged, untagged, way-partitioned one.
var metaSchemes = map[string]meta.StoreConfig{
	"FTS": {Format: meta.Stream, StreamLength: 4, Filtered: true, Tagged: true, SetPartitioned: true, MetaWaysPerSet: 8},
	"RUW": {Format: meta.Stream, StreamLength: 4, MetaWaysPerSet: 8},
}

// probeMeta batch-times the metadata store on the L2-miss stream — insert
// every trigger with the four lines that followed it, then look every
// trigger up — and a halve-and-restore resize pair and the partitioner's
// observe-and-tick step.
func probeMeta(in probeInput, s opStreams, out values) {
	lines := trainingLines(s)
	n := len(lines) - 4
	maxBytes := in.spec.MetaKB << 10
	bridge := func() meta.Bridge { return &meta.NullBridge{Sets: in.cfg.LLC.Sets, Ways: in.cfg.LLC.Ways} }
	var resizeUs []float64
	for _, name := range sortedKeys(metaSchemes) {
		cfg := metaSchemes[name]
		cfg.MaxBytes = maxBytes
		var st *meta.Store
		out["meta."+name+".insert_ns"] = nsPerOp(func() (int, func()) {
			st = meta.NewStore(cfg, bridge())
			return n, func() {
				for i := 0; i < n; i++ {
					st.Insert(uint64(i), mem.PC(i&63), meta.Entry{Trigger: lines[i], Targets: lines[i+1 : i+5]})
				}
			}
		})
		out["meta."+name+".lookup_ns"] = nsPerOp(func() (int, func()) {
			return n, func() {
				for i := 0; i < n; i++ {
					st.Lookup(uint64(i), mem.PC(i&63), lines[i])
				}
			}
		})
		resizeUs = append(resizeUs, nsPerOp(func() (int, func()) {
			return 2, func() {
				st.Resize(maxBytes / 2)
				st.Resize(maxBytes)
			}
		})/1e3)
	}
	out["meta.resize_us"] = exp.Mean(resizeUs)
	out["meta.partition_tick_ns"] = nsPerOp(func() (int, func()) {
		p := meta.NewPartitioner(meta.PartitionerConfig{
			Mode: meta.SetMode, Sizes: []int{0, maxBytes / 2, maxBytes}, MaxBytes: maxBytes,
			LLCWays: in.cfg.LLC.Ways, MetaWaysPerSet: 8,
			EntriesPerBlock: meta.EntriesPerBlock(meta.Stream, 4), MetaWeight: meta.StreamlineMetaWeight,
		})
		sets := in.cfg.LLC.Sets
		return len(lines), func() {
			for _, l := range lines {
				set := int(uint64(l) & uint64(sets-1))
				p.ObserveData(set, l)
				p.ObserveTrigger(set, l)
				p.Tick()
			}
		}
	})
}

// probeWorkloads batch-times trace generation.
func probeWorkloads(in probeInput, out values) error {
	var genErr error
	out["workloads.gen_ns_per_record"] = nsPerOp(func() (int, func()) {
		tr, err := generator(in.spec)
		if err != nil {
			genErr = err
			return 1, func() {}
		}
		return len(in.recs), func() {
			for range in.recs {
				tr.Next()
			}
		}
	})
	out["workloads.records_per_kinstr"] = ratio(float64(len(in.recs))*1000, float64(in.instr))
	return genErr
}

// enginePairs are the decorated simulations that between them run every
// prefetch engine once. The temporal arms run without an L2 prefetcher so
// their coverage is theirs alone.
var enginePairs = [][3]string{
	{"stride", "none", "triage"}, {"stride", "none", "triangel"},
	{"stride", "none", "streamline"}, {"stride", "none", "stms"},
	{"berti", "ipcp", "none"}, {"stride", "bingo", "none"}, {"stride", "spp", "none"},
}

// probeEngines runs the decorated simulations on the probe workload and
// reports each engine's Train cost and request yield, the bridge access
// cost, and the temporal arms' accuracy and coverage over a stride-only
// baseline. Every decorated result must equal its undecorated twin.
func probeEngines(in probeInput, t *tracer, out values, o *ops) error {
	spec := func(l1, l2, temporal string) simJob {
		sp := in.spec
		sp.L1, sp.L2, sp.Temporal = l1, l2, temporal
		return simJob{label: fmt.Sprintf("probe/%s+%s+%s", l1, l2, temporal), spec: mustSpec(sp)}
	}
	base, _, err := spec("stride", "none", "none").run(nil)
	if err != nil {
		return err
	}
	for _, p := range enginePairs {
		j := spec(p[0], p[1], p[2])
		plain, _, err := j.run(nil)
		if err != nil {
			return err
		}
		got, timers, err := j.run(t)
		if err != nil {
			return err
		}
		o.add(got.digest == plain.digest, "%s: traced digest differs from untraced", j.label)
		for slot, name := range p {
			if name == "none" || (slot == 0 && name == "stride" && p != enginePairs[0]) {
				continue // stride is reported once, from the first simulation
			}
			e := engineByName(name)
			out[e.metric("requests_per_train")] = timers.requestsPerTrain(slot)
		}
		if p[2] != "none" && p[2] != "stms" {
			e := engineByName(p[2])
			out[e.metric("accuracy")] = got.res.Cores[0].Prefetchers[2].Accuracy()
			out[e.metric("coverage")] = exp.Coverage(base.res, got.res)
		}
	}
	for _, e := range engines {
		// Stride runs in several of the simulations; its cost is the mean
		// over all of them.
		out[e.metric("train_ns")] = t.perCall("train." + e.name)
	}
	out["meta.bridge_access_ns"] = t.perCall("meta.bridge.access")
	return nil
}

// pairedRatio alternates a and b three times and returns median(b)/median(a).
func pairedRatio(a, b func() (time.Duration, error)) (float64, error) {
	var as, bs []float64
	for i := 0; i < 3; i++ {
		da, err := a()
		if err != nil {
			return 0, err
		}
		db, err := b()
		if err != nil {
			return 0, err
		}
		as, bs = append(as, da.Seconds()), append(bs, db.Seconds())
	}
	return ratio(medianOf(bs), medianOf(as)), nil
}

// probeSim measures the simulator's own layer: what its optional features
// cost, the slice-fed kernel and how much of it the other layers explain,
// and the multi-core scheduler's cost per record.
func probeSim(in probeInput, t *tracer, out values, o *ops) error {
	if err := probeSimOverheads(in.spec, out); err != nil {
		return err
	}
	if err := probeKernel(in, t, out, o); err != nil {
		return err
	}
	return probeScheduler(in.spec, out)
}

// probeSimOverheads times the cost of construction, and of epoch stepping,
// auditing and telemetry as wall-time ratios over a plain one-shot run.
func probeSimOverheads(sp serve.Spec, out values) error {
	timeRun := func(mod func(*sim.Config), run func(*sim.System) error) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			cfg, err := sp.Config()
			if err != nil {
				return 0, err
			}
			if mod != nil {
				mod(&cfg)
			}
			sys, err := sp.NewSystem(cfg)
			if err != nil {
				return 0, err
			}
			start := time.Now()
			err = run(sys)
			return time.Since(start), err
		}
	}
	oneShot := func(s *sim.System) error { s.Run(); return nil }
	plain := timeRun(nil, oneShot)
	for _, variant := range []struct {
		metric string
		run    func() (time.Duration, error)
	}{
		{"sim.epoch_overhead_ratio", timeRun(nil, func(s *sim.System) error {
			_, err := s.RunCtx(context.Background(), sim.DefaultEpoch, nil)
			return err
		})},
		{"sim.audit_on_ratio", timeRun(func(c *sim.Config) { c.Audit = audit.New(sp.Seed) }, oneShot)},
		{"sim.telemetry_on_ratio", timeRun(func(c *sim.Config) {
			c.Telemetry = telemetry.New(telemetry.NewSink(io.Discard), max(sp.Measure/10, 1))
		}, oneShot)},
	} {
		r, err := pairedRatio(plain, variant.run)
		if err != nil {
			return err
		}
		out[variant.metric] = r
	}

	newMs := make([]float64, 5)
	for i := range newMs {
		start := time.Now()
		cfg, err := sp.Config()
		if err != nil {
			return err
		}
		if _, err := sp.NewSystem(cfg); err != nil {
			return err
		}
		newMs[i] = time.Since(start).Seconds() * 1e3
	}
	out["sim.new_ms"] = medianOf(newMs)
	return nil
}

// probeKernel times the kernel fed from the materialised records — no
// generation, and no warm-up window, so every counter covers the whole run —
// then runs it once decorated for its Train time and reports how much of the
// kernel the batch-timed layers and Train account for.
func probeKernel(in probeInput, t *tracer, out values, o *ops) error {
	whole := in.spec
	whole.Warmup, whole.Measure = 0, in.spec.Warmup+in.spec.Measure
	kernel := func(tr *tracer) (simOutcome, error) {
		cfg, err := whole.Config()
		if err != nil {
			return simOutcome{}, err
		}
		var timers *simTimers
		if tr != nil {
			timers = instrument(&cfg, whole.L1, whole.L2, whole.Temporal)
		}
		sys := sim.New(cfg)
		sys.SetTrace(0, trace.NewSlice(in.recs))
		start := time.Now()
		eng := sys.Engine()
		res := eng.Finish()
		wall := time.Since(start)
		if tr != nil {
			timers.flush(tr, "probe/kernel", -1)
		}
		return simOutcome{res: res, records: eng.Progress().Records, wall: wall, digest: digestOf(res)}, nil
	}
	var kernelNs []float64
	var k simOutcome
	for i := 0; i < probeRounds; i++ {
		var err error
		if k, err = kernel(nil); err != nil {
			return err
		}
		kernelNs = append(kernelNs, float64(k.wall)/float64(k.records))
	}
	out["sim.kernel_ns_per_record"] = medianOf(kernelNs)
	kernelTotal := medianOf(kernelNs) * float64(k.records)
	o.checkSim("probe/kernel", k, "")

	kt := t.sibling()
	traced, err := kernel(kt)
	if err != nil {
		return err
	}
	o.add(traced.digest == k.digest, "probe/kernel: traced digest differs from untraced")
	if _, ok := out["sim.trace_overhead_ratio"]; !ok {
		// The harness workloads run no decorated repetition of their own.
		out["sim.trace_overhead_ratio"] = ratio(float64(traced.wall), kernelTotal)
	}
	// Bridge calls happen inside the temporal engine's Train, so only Train
	// spans are summed — less the bridge decorator's own clock reads, which
	// Train's span also covers.
	var trainNs float64
	for _, name := range kt.names() {
		b, calls := kt.total(name)
		if strings.HasPrefix(name, "train.") {
			trainNs += b
		} else {
			trainNs -= float64(calls) * kt.clockNs
		}
	}
	c, llc := k.res.Cores[0], k.res.LLC
	fills := float64(c.L1D.DemandMisses + c.L1D.PrefetchFills + c.L2.DemandMisses + c.L2.PrefetchFills +
		llc.DemandMisses + llc.PrefetchFills)
	shares := map[string]float64{
		"cache": out["cache.l1d.lookup_ns"]*float64(c.L1D.DemandAccesses+c.L1D.PrefetchAccesses) +
			out["cache.l2.lookup_ns"]*float64(c.L2.DemandAccesses+c.L2.PrefetchAccesses) +
			out["cache.llc.lookup_ns"]*float64(llc.DemandAccesses+llc.PrefetchAccesses) +
			out["cache.fill_ns"]*fills,
		"dram":          out["dram.access_ns"] * float64(k.res.DRAM.Accesses()),
		"cpu":           out["cpu.mem_op_ns"] * float64(k.records),
		"prefetch+meta": max(trainNs, 0),
	}
	var accounted float64
	for _, name := range sortedKeys(shares) {
		accounted += shares[name]
		t.shares = append(t.shares, fmt.Sprintf("%s %.1f%%", name, 100*ratio(shares[name], kernelTotal)))
	}
	out["sim.accounted_share"] = ratio(accounted, kernelTotal)
	return nil
}

// probeScheduler reports what the multi-core scheduler adds per retired
// record: the same workload on four cores against one, both generator-fed.
func probeScheduler(sp serve.Spec, out values) error {
	perRecord := func(cores int) (float64, error) {
		j := simJob{label: fmt.Sprintf("probe/x%d", cores), spec: sp}
		j.spec.Cores = cores
		xs := make([]float64, probeRounds)
		for i := range xs {
			got, _, err := j.run(nil)
			if err != nil {
				return 0, err
			}
			xs[i] = float64(got.wall) / float64(got.records)
		}
		return medianOf(xs), nil
	}
	one, err := perRecord(1)
	if err != nil {
		return err
	}
	four, err := perRecord(4)
	if err != nil {
		return err
	}
	out["sim.sched_ns_per_record"] = four - one
	return nil
}

// probeStore times the durable store directly: fsynced appends, verified
// reads, and a verifying reopen. Payloads are real result documents.
func probeStore(e *env, payload []byte, out values) error {
	dir := e.tempDir("store-probe")
	defer os.RemoveAll(dir)
	man := serve.ServiceManifest()
	st, err := store.Create(dir, man)
	if err != nil {
		return err
	}
	const n = 128 // enough for ten samples beyond the 90th percentile
	keys := make([]string, n)
	putUs := make([]float64, n)
	for i := range keys {
		keys[i] = store.Key("benchmark-store-probe", fmt.Sprint(i))
		t0 := time.Now()
		if err := st.PutRaw(keys[i], fmt.Sprint("probe-", i), payload); err != nil {
			return err
		}
		putUs[i] = float64(time.Since(t0)) / 1e3
	}
	out["store.put_p50_us"] = medianOf(putUs)
	out["store.put_p90_us"], _ = supportedPercentile(putUs, 90)
	var missing int
	out["store.get_ns"] = nsPerOp(func() (int, func()) {
		return n, func() {
			for _, k := range keys {
				if _, ok := st.Get(k); !ok {
					missing++
				}
			}
		}
	})
	if err := st.Close(); err != nil {
		return err
	}
	if missing > 0 {
		return fmt.Errorf("store probe: %d of %d records missing", missing, n*probeRounds)
	}
	out["store.open_ms_per_krec"] = nsPerOp(func() (int, func()) {
		return 1, func() {
			if st, err = store.Open(dir, man); err == nil {
				err = st.Close()
			}
		}
	}) / 1e6 / (n / 1000.0)
	if err != nil {
		return err
	}
	fi, err := os.Stat(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		return err
	}
	out["store.bytes_per_record"] = float64(fi.Size()) / n
	return nil
}
