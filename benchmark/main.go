// Command benchmark is this repository's benchmark: five workloads that
// between them exercise the simulation kernel, the sweep harness and the
// streamd serving path, measured end to end (eight bounded metrics every
// workload reports) and layer by layer (a separate traced run).
//
//	go run ./benchmark                          # every workload, untraced then traced
//	go run ./benchmark -workload sweep-micro    # one workload
//	go run ./benchmark -repeat-check            # two sets of three suites; fails if a metric's set medians differ past its bound
//	go run ./benchmark -manifest                # print BENCHMARK.json
//
// The driver's form (`bash benchmark/run.sh --workload W --seed N --seconds S
// --trace 0|1`) prints one JSON object as the last line of standard output.
// See README.md for what each workload and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// env is what a run is parameterised by.
type env struct {
	seed    int64
	seconds float64
	quick   bool
	procs   int
	tmp     string // scratch root for stores, inside the working directory
	cal     *calibrator
}

func (e *env) budgetDuration() time.Duration {
	return time.Duration(e.seconds * float64(time.Second))
}

// tempDir names a scratch directory for one store; the caller removes it.
func (e *env) tempDir(name string) string { return filepath.Join(e.tmp, name) }

// workload binds a name to its untraced and traced runs. traced also returns
// the simulation job the layer probes take their record stream from: one of
// the workload's own simulations.
type workload struct {
	name string
	// lanes is how many goroutines the workload's measured work keeps busy,
	// and so how many the calibration loop runs on.
	lanes    int
	untraced func(e *env) (report, error)
	traced   func(e *env, t *tracer, out values) (report, simJob, error)
}

func simWorkloadEntry(build func(*env) *simWorkload) (func(*env) (report, error), func(*env, *tracer, values) (report, simJob, error)) {
	return func(e *env) (report, error) { return build(e).untraced(e) },
		func(e *env, t *tracer, out values) (report, simJob, error) {
			w := build(e)
			rep, err := w.traced(e, t, out)
			return rep, w.probeJob(), err
		}
}

func workloadByName(name string, e *env) (workload, error) {
	w := workload{name: name, lanes: 1}
	if !strings.HasPrefix(name, "sim-") {
		w.lanes = e.procs // the sweep's job pool, streamd's workers
	}
	switch name {
	case "sim-irregular-1c":
		w.untraced, w.traced = simWorkloadEntry(newSimIrregular)
	case "sim-regular-1c":
		w.untraced, w.traced = simWorkloadEntry(newSimRegular)
	case "sim-mix-4c":
		w.untraced, w.traced = simWorkloadEntry(newSimMix)
	case "sweep-micro":
		w.untraced = func(e *env) (report, error) { return newSweep(e).untraced(e) }
		w.traced = func(e *env, t *tracer, out values) (report, simJob, error) {
			sw := newSweep(e)
			rep, counts, err := sw.traced(e, t, out)
			counts.fill(out)
			return rep, sw.probeJob(), err
		}
	case "serve-mixed":
		w.untraced = serveUntraced
		w.traced = func(e *env, t *tracer, out values) (report, simJob, error) {
			sw, err := newServe(e)
			if err != nil {
				return report{}, simJob{}, err
			}
			rep, counts, err := sw.traced(e, t, out)
			counts.fill(out)
			return rep, sw.probeJob(), err
		}
	default:
		var names []string
		for _, d := range workloadDefs {
			names = append(names, d.Name)
		}
		return w, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
	}
	return w, nil
}

// tracedRun is a workload's traced run: one traced repetition of the
// workload itself, then the layer probes on one of the workload's own
// simulations. The driver's contract is that every workload prints every
// per-layer metric, so the layers a workload does not itself exercise — the
// sweep harness outside sweep-micro, the serving path outside serve-mixed —
// are measured by the owning workload's traced repetition at its real size,
// and the report marks those values as borrowed.
func tracedRun(w workload, e *env, t *tracer) (report, error) {
	out := values{}
	rep, job, err := w.traced(e, t, out)
	if err != nil {
		return rep, err
	}
	in, err := materialize(job)
	if err != nil {
		return rep, err
	}
	streams := deriveStreams(in)
	// A calibration sample between probes, so the run's factor covers them.
	for _, probe := range []func() error{
		func() error { return probeWorkloads(in, out) },
		func() error { probeCaches(in, streams, t.clockNs, out); return nil },
		func() error { probeReplacement(in, streams, out); return nil },
		func() error { probeDRAM(in, streams, out); probeCPU(in, out); return nil },
		func() error { probeMeta(in, streams, out); return nil },
		func() error { return probeEngines(in, t, out, &rep.ops) },
		func() error { return probeSim(in, t, out, &rep.ops) },
	} {
		if err := probe(); err != nil {
			return rep, err
		}
		e.cal.sample()
	}
	// The store probe appends a real result document: the probe job's.
	doc, _, err := job.run(nil)
	if err != nil {
		return rep, err
	}
	payload, err := json.Marshal(doc.res)
	if err != nil {
		return rep, err
	}
	if err := probeStore(e, payload, out); err != nil {
		return rep, err
	}

	rep.borrowed = map[string]string{}
	borrow := func(owner string, traced func(lent values) (report, error)) error {
		if w.name == owner {
			return nil
		}
		lent := values{}
		r, err := traced(lent)
		if err != nil {
			return err
		}
		rep.ops.merge(r.ops)
		rep.info = append(rep.info, r.info...)
		for name, v := range lent {
			out[name] = v
			rep.borrowed[name] = owner
		}
		return nil
	}
	if err := borrow("sweep-micro", func(lent values) (report, error) {
		r, _, err := newSweep(e).traced(e, t, lent)
		return r, err
	}); err != nil {
		return rep, err
	}
	if err := borrow("serve-mixed", func(lent values) (report, error) {
		sw, err := newServe(e)
		if err != nil {
			return report{}, err
		}
		r, _, err := sw.traced(e, t, lent)
		return r, err
	}); err != nil {
		return rep, err
	}
	rep.vals = out
	rep.info = append(rep.info,
		"layer probes replay "+job.label+"; layer shares of its kernel: "+strings.Join(t.shares, ", "))
	return rep, nil
}

// provenance describes the build and host that produced a result.
func provenance(e *env) map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return map[string]any{
		"go_version":   runtime.Version(),
		"goarch":       runtime.GOARCH,
		"num_cpu":      runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"vcs_revision": rev,
		"seed":         e.seed,
		"seconds":      e.seconds,
		"quick":        e.quick,
	}
}

// result is the object the driver reads from the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func toResult(defs []metricDef, rep report) result {
	r := result{Correct: rep.ops.failed == 0, Attempted: rep.ops.attempted, Failed: rep.ops.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{rep.vals[d.Name], d.Unit}
	}
	return r
}

// printReport writes a run's human-readable account.
func printReport(w io.Writer, name string, traced bool, defs []metricDef, rep report) {
	kind := "end-to-end (untraced)"
	if traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s: %s ==\n", name, kind)
	for _, d := range defs {
		v, ok := rep.vals[d.Name]
		switch {
		case !ok:
		case d.Moves == "" && aliased(name, d.Name):
			fmt.Fprintf(w, "  %-40s %14.6g %-6s [alias: host_ns_per_record per result]\n", d.Name, v, d.Unit)
		case d.Moves == "":
			fmt.Fprintf(w, "  %-40s %14.6g %s\n", d.Name, v, d.Unit)
		default: // a layer metric: say which end-to-end metric it should move, and where
			fmt.Fprintf(w, "  %-40s %14.6g %-6s -> %s on %s", d.Name, v, d.Unit, d.Moves, d.On)
			if owner := rep.borrowed[d.Name]; owner != "" {
				fmt.Fprintf(w, "  [borrowed: measured on %s's own traced repetition]", owner)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "  failed_ops_share %d/%d", rep.ops.failed, rep.ops.attempted)
	if rep.digest != "" {
		fmt.Fprintf(w, "  sim_digest %s", rep.digest)
	}
	fmt.Fprintln(w)
	for _, line := range rep.info {
		fmt.Fprintf(w, "  %s\n", line)
	}
	for _, note := range rep.ops.notes {
		fmt.Fprintf(w, "  FAILED: %s\n", note)
	}
}

// runOne runs one workload traced or untraced and returns its report — every
// metric of the returned list present — with the untraced run's compute-bound
// times rescaled by the run's own calibration (see calib.go).
func runOne(name string, traced bool, e *env) (report, []metricDef, error) {
	w, err := workloadByName(name, e)
	if err != nil {
		return report{}, nil, err
	}
	// Start every run from the heap a fresh process would have, so runs
	// that share a process (the suite, -repeat-check) are comparable.
	debug.FreeOSMemory()
	e.cal = newCalibrator(w.lanes)
	defs := endToEnd
	var rep report
	if !traced {
		rep, err = w.untraced(e)
	} else {
		defs = perLayer
		rep, err = tracedRun(w, e, newTracer())
	}
	if err == nil {
		err = checkComplete(defs, rep.vals)
	}
	if err != nil {
		return rep, defs, err
	}
	f := e.cal.factor()
	if traced {
		rep.info = append(rep.info, fmt.Sprintf(
			"host-speed calibration: factor %.4f over %d samples (per-layer times are as measured)", f, len(e.cal.alu)))
		return rep, defs, nil
	}
	applyCalibration(name, rep.vals, f)
	var scaled []string
	for _, d := range defs {
		if calibrated(name, d.Name) {
			scaled = append(scaled, d.Name)
		}
	}
	rep.info = append(rep.info, fmt.Sprintf(
		"host-speed calibration: factor %.4f over %d samples of a %d-lane loop; %s are divided by it (rates multiplied), the rest are as measured",
		f, len(e.cal.alu), len(e.cal.lanes), strings.Join(scaled, ", ")))
	return rep, defs, nil
}

// suite runs every workload untraced and, with traced set, traced as well,
// and returns the untraced values by workload. Traced digests must equal
// untraced ones.
func suite(e *env, out io.Writer, traced bool) (map[string]values, bool, error) {
	all := map[string]values{}
	ok := true
	for _, d := range workloadDefs {
		plain, defs, err := runOne(d.Name, false, e)
		if err != nil {
			return nil, false, fmt.Errorf("%s: %w", d.Name, err)
		}
		printReport(out, d.Name, false, defs, plain)
		ok = ok && plain.ops.failed == 0
		all[d.Name] = plain.vals
		if !traced {
			continue
		}
		layers, defs, err := runOne(d.Name, true, e)
		if err != nil {
			return nil, false, fmt.Errorf("%s (traced): %w", d.Name, err)
		}
		printReport(out, d.Name, true, defs, layers)
		if layers.digest != plain.digest {
			fmt.Fprintf(out, "  FAILED: traced sim_digest %s differs from untraced %s\n", layers.digest, plain.digest)
			ok = false
		}
		ok = ok && layers.ops.failed == 0
	}
	return all, ok, nil
}

// worse is how far b is worse than a, as a share of a, in the metric's
// direction (negative when b is better).
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// repeatRuns is how many suites each of -repeat-check's two sets holds.
const repeatRuns = 3

// repeatCheck measures the same code as two sets of repeatRuns suites,
// alternating between the sets so that drift in the host's speed falls on
// both, and names every end-to-end metric whose two set medians differ by
// more than its bound. The first suite also runs traced, for the digest
// comparison. Simulated metrics must agree exactly across every suite.
func repeatCheck(e *env, out io.Writer) (bool, error) {
	var sets [2][]map[string]values
	ok := true
	for i := 0; i < 2*repeatRuns; i++ {
		vals, clean, err := suite(e, out, i == 0)
		if err != nil {
			return false, err
		}
		ok = ok && clean
		sets[i%2] = append(sets[i%2], vals)
	}
	for _, w := range workloadDefs {
		for _, d := range endToEnd {
			if aliased(w.Name, d.Name) {
				continue
			}
			var readings [2][]float64
			for s, set := range sets {
				for _, vals := range set {
					readings[s] = append(readings[s], vals[w.Name][d.Name])
				}
			}
			all := append(append([]float64(nil), readings[0]...), readings[1]...)
			if strings.HasPrefix(d.Name, "sim_") && slices.Min(all) != slices.Max(all) {
				fmt.Fprintf(out, "repeat-check: %s %s is simulated and must repeat exactly: %v\n", w.Name, d.Name, all)
				ok = false
			}
			a, b := medianOf(readings[0]), medianOf(readings[1])
			if dw := worse(d, a, b); dw > d.Bound || -dw > d.Bound {
				fmt.Fprintf(out, "repeat-check: %s %s moved %.1f%% between two sets of runs of the same code (bound %.1f%%): medians %v and %v\n",
					w.Name, d.Name, 100*dw, 100*d.Bound, a, b)
				ok = false
			}
		}
	}
	return ok, nil
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all five, untraced then traced)")
		seed         = flag.Int64("seed", 1, "seed every generated input derives from (2 is the held-out seed)")
		secs         = flag.Float64("seconds", runSeconds, "measurement budget of one untraced run")
		traceFlag    = flag.Int("trace", 0, "1: the traced run (per-layer metrics); 0: the untraced run (end-to-end metrics)")
		quick        = flag.Bool("quick", false, "shrink every budget (smoke tests; numbers are not comparable)")
		check        = flag.Bool("repeat-check", false, "run two interleaved sets of three suites and fail if the sets' medians of an end-to-end metric differ by more than its bound")
		printMan     = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *printMan {
		os.Stdout.Write(manifest())
		return
	}
	e := &env{seed: *seed, seconds: *secs, quick: *quick, procs: runtime.GOMAXPROCS(0)}
	if *quick && !flagSet("seconds") {
		e.seconds = 0
	}
	tmp, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		fatal(err)
	}
	e.tmp = tmp
	code, line := run(e, *workloadName, *traceFlag == 1, *check)
	// The scratch directory goes before the result is written, so a reader
	// that has gone away cannot leave it behind.
	os.RemoveAll(tmp)
	os.Stdout.Write(line)
	os.Exit(code)
}

func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// run dispatches one invocation and returns the exit code and the JSON line
// that closes standard output (nil when there is none).
func run(e *env, name string, traced, check bool) (int, []byte) {
	prov, _ := json.Marshal(provenance(e))
	fmt.Fprintf(os.Stderr, "provenance %s\n", prov)
	switch {
	case check:
		ok, err := repeatCheck(e, os.Stderr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1, nil
		}
		if !ok {
			return 1, nil
		}
		fmt.Fprintln(os.Stderr, "repeat-check: every end-to-end metric agreed within its bound")
		return 0, nil
	case name == "":
		all, ok, err := suite(e, os.Stdout, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1, nil
		}
		doc, _ := json.Marshal(map[string]any{"provenance": provenance(e), "end_to_end": all, "correct": ok})
		if !ok {
			return 1, append(doc, '\n')
		}
		return 0, append(doc, '\n')
	}
	rep, defs, err := runOne(name, traced, e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1, nil
	}
	printReport(os.Stderr, name, traced, defs, rep)
	line, err := json.Marshal(toResult(defs, rep))
	if err != nil { // a NaN or infinite metric
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1, nil
	}
	return 0, append(line, '\n')
}
