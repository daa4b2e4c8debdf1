package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"streamline/internal/exp"
	"streamline/internal/exp/runner"
	"streamline/internal/exp/store"
	"streamline/internal/metrics"
	"streamline/internal/serve"
	"streamline/internal/sim"
)

// This file is the sweep-micro workload: cmd/experiments' sweep loop
// (exp.Runner over a checkpoint store, tables rendered to text) at micro
// scale. One cycle is a cold pass into a fresh store, memo passes on the same
// runner, and resume passes by fresh runners over the reopened store.

// sweepWorkload fixes the scale, the experiments and the pool width.
type sweepWorkload struct {
	sc   exp.Scale
	exps []exp.Experiment
	jobs int
	// memos and resumes are the memo and resume passes of one cycle: many,
	// because one pass takes a fraction of a millisecond (memo) or a few
	// milliseconds (resume), too short a window to time on its own.
	memos, resumes int
	cal            *calibrator
}

func newSweep(e *env) *sweepWorkload {
	sc := exp.Micro
	sc.Seed = traceSeed(e.seed, 0)
	if e.quick {
		sc.Warmup /= 4
		sc.Measure /= 4
	}
	w := &sweepWorkload{sc: sc, jobs: e.procs, memos: 40, resumes: 20, cal: e.cal}
	if e.quick {
		w.memos, w.resumes = 3, 3
	}
	for _, id := range expIDs {
		x, ok := exp.ByID(id)
		if !ok {
			panic("benchmark: experiment " + id + " is not registered")
		}
		w.exps = append(w.exps, x)
	}
	return w
}

// probeJob is the simulation the layer probes replay. The sweep builds its
// simulations inside exp, which hands out no sim.Config, so this is the
// serve.Spec twin of fig9's Streamline run on the scale's first workload:
// the same hierarchy scale, workload, budgets and seed.
func (w *sweepWorkload) probeJob() simJob {
	name := w.sc.Workloads[0]
	return simJob{label: "sweep/streamline/" + name, spec: mustSpec(serve.Spec{Workload: name,
		L1: "stride", Temporal: "streamline", Footprint: w.sc.Footprint, LLCSets: w.sc.LLCSets,
		MetaKB: w.sc.MetaBytes >> 10, Warmup: w.sc.Warmup, Measure: w.sc.Measure, Seed: w.sc.Seed})}
}

func (w *sweepWorkload) manifest() store.Manifest {
	return store.Manifest{Version: store.Version, ScaleName: w.sc.Name,
		ScaleFP: w.sc.Fingerprint(), Seed: w.sc.Seed}
}

// passResult is one run of every experiment on a runner.
type passResult struct {
	out    []byte // every table rendered, in experiment order
	wall   time.Duration
	perExp []timed
	fig9   []exp.Table
	gaps   int // jobs that failed permanently
}

// timed is a measured interval.
type timed struct {
	start time.Time
	d     time.Duration
}

// pass runs the experiments on r and renders their tables, as
// cmd/experiments does between its flag parsing and its exit code.
func (w *sweepWorkload) pass(r *exp.Runner) passResult {
	var p passResult
	var buf bytes.Buffer
	start := time.Now()
	for _, x := range w.exps {
		t0 := time.Now()
		tables := x.Run(r)
		fails := r.DrainFailures()
		p.gaps += len(fails)
		exp.AnnotateGaps(tables, fails)
		for _, t := range tables {
			fmt.Fprintln(&buf, t)
		}
		p.perExp = append(p.perExp, timed{t0, time.Since(t0)})
		if x.ID == "fig9" {
			p.fig9 = tables
		}
	}
	p.wall = time.Since(start)
	p.out = buf.Bytes()
	return p
}

// runnerOn returns a fresh runner over st with its job metrics on a
// benchmark-owned registry.
func (w *sweepWorkload) runnerOn(st *store.Store) (*exp.Runner, *runner.Metrics) {
	r := exp.NewRunner(w.sc)
	r.Jobs = w.jobs
	r.Store = st
	return r, r.EnableMetrics(metrics.NewRegistry())
}

// cycleResult is one cold + memo + resume cycle.
type cycleResult struct {
	cold     passResult
	coldWall time.Duration // store creation to close, memo passes excluded
	coldMem  memDelta
	memo     []time.Duration
	resume   []time.Duration // store open to close
	results  int             // simulation results the store holds after the cold pass
	jm       *runner.Metrics // the cold pass's job accounting
	ops      ops
}

// busy is the cycle's measured time: its passes, without the calibration
// samples taken between them.
func (c cycleResult) busy() time.Duration {
	d := c.coldWall
	for _, m := range c.memo {
		d += m
	}
	for _, r := range c.resume {
		d += r
	}
	return d
}

// cycle runs one cycle in dir, which it creates and leaves for the caller to
// read and remove. want is the rendered output every pass must reproduce
// (nil: the cold pass defines it).
func (w *sweepWorkload) cycle(dir string, want []byte) (cycleResult, error) {
	var c cycleResult
	runtime.GC()
	m0 := readMem()
	t0 := time.Now()
	st, err := store.Create(dir, w.manifest())
	if err != nil {
		return c, err
	}
	r, jm := w.runnerOn(st)
	c.cold = w.pass(r)
	c.coldWall = time.Since(t0)
	c.coldMem = readMem().since(m0)
	c.jm = jm
	w.cal.sample()
	if want == nil {
		want = c.cold.out
	}
	c.ops.add(c.cold.gaps == 0 && r.StoreErr() == nil && bytes.Equal(c.cold.out, want),
		"cold pass: %d gaps, store error %v, output equal to the first pass: %v",
		c.cold.gaps, r.StoreErr(), bytes.Equal(c.cold.out, want))
	for i := 0; i < w.memos; i++ {
		p := w.pass(r)
		c.memo = append(c.memo, p.wall)
		c.ops.add(bytes.Equal(p.out, want), "memo pass %d rendered different tables", i)
	}
	w.cal.sample()
	c.results = st.Len()
	t1 := time.Now()
	if err := st.Close(); err != nil {
		return c, err
	}
	c.coldWall += time.Since(t1)

	for i := 0; i < w.resumes; i++ {
		t0 := time.Now()
		st, err := store.Open(dir, w.manifest())
		if err != nil {
			return c, err
		}
		r, _ := w.runnerOn(st)
		p := w.pass(r)
		if err := st.Close(); err != nil {
			return c, err
		}
		c.resume = append(c.resume, time.Since(t0))
		if i%4 == 3 {
			w.cal.sample()
		}
		c.ops.add(bytes.Equal(p.out, want) && r.ResumedJobs() == c.results,
			"resume pass %d: replayed %d of %d results, output equal: %v",
			i, r.ResumedJobs(), c.results, bytes.Equal(p.out, want))
	}
	return c, nil
}

// storedCounts reads a sweep store's records file and folds every persisted
// simulation result into counts.
func (w *sweepWorkload) storedCounts(dir string) (simCounts, error) {
	var c simCounts
	f, err := os.Open(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		return c, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for sc.Scan() {
		rec, err := store.DecodeRecord(sc.Bytes())
		if err != nil {
			return c, fmt.Errorf("sweep store record: %w", err)
		}
		var res sim.Result
		if err := json.Unmarshal(rec.Payload, &res); err != nil {
			return c, fmt.Errorf("sweep store payload %s: %w", rec.ID, err)
		}
		c.add(res, 0, w.sc.Warmup, w.sc.Measure)
	}
	return c, sc.Err()
}

// fig9Speedup reads Streamline's all-workload geomean speedup out of the
// rendered fig9 table.
func fig9Speedup(tables []exp.Table) (float64, error) {
	for _, t := range tables {
		col := -1
		for i, name := range t.Columns {
			if name == "streamline" {
				col = i
			}
		}
		if col < 0 {
			continue
		}
		for _, row := range t.Rows {
			if len(row) > col && row[0] == "geomean-all" {
				return strconv.ParseFloat(row[col], 64)
			}
		}
	}
	return 0, fmt.Errorf("fig9 has no geomean-all/streamline cell")
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// primed is the sweep's set-up product: a first cold pass, which fixes the
// tables every later pass must reproduce and, through its store, the record
// count host time is normalised by.
type primed struct {
	want   []byte
	counts simCounts
}

func (w *sweepWorkload) prime(e *env) (primed, error) {
	dir := e.tempDir("prime")
	defer os.RemoveAll(dir)
	st, err := store.Create(dir, w.manifest())
	if err != nil {
		return primed{}, err
	}
	r, _ := w.runnerOn(st)
	p := w.pass(r)
	if err := st.Close(); err != nil {
		return primed{}, err
	}
	w.cal.sample()
	if p.gaps > 0 || r.StoreErr() != nil {
		return primed{}, fmt.Errorf("priming pass: %d gaps, store error %v", p.gaps, r.StoreErr())
	}
	counts, err := w.storedCounts(dir)
	return primed{want: p.out, counts: counts}, err
}

func (w *sweepWorkload) untraced(e *env) (report, error) {
	var rep report
	pr, setupS, err := setupMedian(3, func() (primed, error) { return w.prime(e) })
	if err != nil {
		return rep, err
	}
	records := pr.counts.records

	var cold, mallocs, allocBytes, memo, resume, rate []float64
	var speedupCell float64
	var results int
	cycles, err := repeatFor(e.budgetDuration(), 2, func(i int) error {
		dir := e.tempDir(fmt.Sprintf("sweep-%d", i))
		defer os.RemoveAll(dir)
		c, err := w.cycle(dir, pr.want)
		if err != nil {
			return err
		}
		rep.ops.merge(c.ops)
		cold = append(cold, c.coldWall.Seconds())
		mallocs = append(mallocs, float64(c.coldMem.mallocs))
		allocBytes = append(allocBytes, float64(c.coldMem.bytes))
		memo = append(memo, seconds(c.memo)...)
		resume = append(resume, seconds(c.resume)...)
		rate = append(rate, float64(c.results*(1+w.memos+w.resumes))/c.busy().Seconds())
		results = c.results
		if speedupCell, err = fig9Speedup(c.cold.fig9); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		return rep, err
	}
	rep.vals = values{
		"setup_s":                setupS,
		"host_ns_per_record":     medianOf(cold) * 1e9 / records,
		"allocs_per_record":      medianOf(mallocs) / records,
		"alloc_bytes_per_record": medianOf(allocBytes) / records,
		"sim_speedup_geomean":    speedupCell,
		"repeat_us_per_result":   medianOf(memo) * 1e6 / float64(results),
		"restart_us_per_result":  medianOf(resume) * 1e6 / float64(results),
		"results_per_s":          medianOf(rate),
	}
	rep.digest = hashAll([][]byte{pr.want})
	rep.info = []string{
		fmt.Sprintf("cycles=%d experiments=%d results_per_pass=%d records_per_cold_pass=%.0f (estimated from the store) jobs=%d",
			cycles, len(w.exps), results, records, w.jobs),
		fmt.Sprintf("samples: cold passes=%d, memo passes=%d, resume passes=%d, set-ups=3",
			len(cold), len(memo), len(resume)),
	}
	return rep, nil
}

// traced runs one cycle and reports the harness layers from it — per
// experiment wall time and the runner's job accounting — and returns the
// simulated counts of the results it persisted, which are the sweep's own
// per-layer counts when the sweep is the workload being traced.
func (w *sweepWorkload) traced(e *env, t *tracer, out values) (report, simCounts, error) {
	var rep report
	dir := e.tempDir("sweep-traced")
	defer os.RemoveAll(dir)
	root := t.begin("sweep.cycle", "sweep", -1)
	c, err := w.cycle(dir, nil)
	t.end(root)
	if err != nil {
		return rep, simCounts{}, err
	}
	rep.ops = c.ops
	for i, x := range c.cold.perExp {
		out["exp."+w.exps[i].ID+"_s"] = x.d.Seconds()
		t.record("exp."+w.exps[i].ID, "sweep", root, x.start, x.d)
	}
	// The runner keeps no per-job timestamps, only its attempt histogram:
	// the jobs of the cold pass become one aggregate span.
	t.add("runner.attempt", "sweep", root, c.cold.perExp[0].start, c.cold.perExp[0].start.Add(c.cold.wall),
		time.Duration(c.jm.Attempts.Sum()*float64(time.Second)), int64(c.jm.Attempts.Count()))
	out["exp.sims_computed"] = float64(c.jm.Completed.Value())
	out["exp.render_ms"] = medianOf(seconds(c.memo)) * 1e3
	out["runner.jobs"] = float64(w.jobs)
	out["runner.attempt_mean_ms"] = c.jm.Attempts.Mean() * 1e3
	out["runner.pool_busy_share"] = ratio(c.jm.Attempts.Sum(), c.cold.wall.Seconds()*float64(w.jobs))
	out["runner.retries"] = float64(c.jm.Retries.Value())
	rep.digest = hashAll([][]byte{c.cold.out})
	rep.info = []string{fmt.Sprintf("traced sweep cycle: cold %.2fs, %d results, memo %.1fms, resume %.1fms",
		c.coldWall.Seconds(), c.results, medianOf(seconds(c.memo))*1e3, medianOf(seconds(c.resume))*1e3)}
	counts, err := w.storedCounts(dir)
	return rep, counts, err
}
