// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -list
//	experiments -run fig9
//	experiments -run all -scale paper
//	experiments -run fig10a,fig13b -v
//	experiments -run all -jobs 8 -json results.json
//	experiments -run all -checkpoint sweep.d   # crash-safe: results persist
//	experiments -run all -resume sweep.d       # replay finished jobs, run the rest
//
// Independent simulations (one per configuration x workload x mix) run on a
// bounded worker pool; -jobs sets its size. Table output on stdout is
// byte-identical for every -jobs value: results are aggregated in
// deterministic job order, and everything scheduling-dependent (progress,
// timings) goes to stderr. With -checkpoint/-resume every completed
// simulation is persisted (fsynced, checksummed) to the sweep directory, and
// a resumed run's stdout is byte-identical to an uninterrupted one.
//
// A failing job (error, panic, -job-timeout) does not abort the sweep: its
// cells render as GAP, the affected tables are annotated, and the process
// exits nonzero after completing everything else.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"streamline/internal/exp"
	"streamline/internal/exp/runner"
	"streamline/internal/exp/store"
	"streamline/internal/metrics"
	"streamline/internal/telemetry"
)

func main() {
	var (
		runIDs   = flag.String("run", "", "comma-separated experiment ids, or 'all'")
		scale    = flag.String("scale", "small", "experiment scale: micro, small, or paper")
		list     = flag.Bool("list", false, "list available experiments")
		verbose  = flag.Bool("v", false, "print per-run progress")
		quiet    = flag.Bool("q", false, "suppress per-job progress/ETA reporting on stderr")
		jobs     = flag.Int("jobs", runtime.GOMAXPROCS(0), "parallel simulation jobs (1 = serial)")
		csvDir   = flag.String("csv", "", "also write each table as CSV into this directory")
		jsonDest = flag.String("json", "", "write all results as JSON to this file ('-' for stdout)")
		check    = flag.Bool("check", false, "run every simulation with the invariant audit enabled; exit 1 on violations")

		checkpoint = flag.String("checkpoint", "", "persist completed simulations into this sweep directory (created if needed; reopening resumes it)")
		resumeDir  = flag.String("resume", "", "resume a sweep: replay completed simulations from this existing sweep directory, run the rest, keep checkpointing into it")
		jobTimeout = flag.Duration("job-timeout", 0, "wall-clock bound for one simulation (0: unbounded); a timed-out job becomes a GAP")

		metricsDest = flag.String("metrics", "", "write the final metrics exposition to this file at exit ('-' for stderr)")

		telDir     = flag.String("telemetry-dir", "", "write per-simulation telemetry JSONL files into this directory")
		sampleIvl  = flag.Uint64("sample-interval", 0, "measured instructions between telemetry samples per core (0: a tenth of the measured window)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *list || *runIDs == "" {
		fmt.Println("available experiments:")
		for _, e := range exp.All() {
			fmt.Printf("  %-10s %s\n", e.ID, e.Title)
		}
		if *runIDs == "" {
			fmt.Println("\nrun with: experiments -run <id>[,<id>...] | all")
		}
		return
	}

	if *jobs < 1 {
		fmt.Fprintf(os.Stderr, "invalid -jobs %d: need at least 1 worker\n", *jobs)
		os.Exit(2)
	}
	if *checkpoint != "" && *resumeDir != "" {
		fmt.Fprintln(os.Stderr, "-checkpoint and -resume are mutually exclusive (resume already keeps checkpointing into its directory)")
		os.Exit(2)
	}

	var sc exp.Scale
	switch *scale {
	case "micro":
		sc = exp.Micro
	case "small":
		sc = exp.Small
	case "paper":
		sc = exp.Paper
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want micro, small, or paper)\n", *scale)
		os.Exit(2)
	}

	var selected []exp.Experiment
	if *runIDs == "all" {
		selected = exp.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			e, ok := exp.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	st, err := openStore(*checkpoint, *resumeDir, sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// os.Exit skips defers, so every exit after this point goes through
	// exit() to flush the profiles.
	stopProfiles, err := telemetry.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// SIGINT cancels the sweep cooperatively: in-flight simulations stop at
	// their next engine epoch boundary, pending jobs fail fast, and results
	// already checkpointed stay durable for a later -resume.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	r := exp.NewRunner(sc)
	r.Ctx = ctx
	r.Jobs = *jobs
	r.Check = *check
	r.Store = st
	r.Fault = runner.FaultPolicy{Timeout: *jobTimeout}
	r.FailKey = os.Getenv("EXPERIMENTS_FAIL_KEY")

	// EnableMetrics must follow the Fault assignment (it hooks the policy).
	reg := metrics.NewRegistry()
	r.EnableMetrics(reg)
	exit := func(code int) {
		if err := writeMetrics(*metricsDest, reg); err != nil {
			fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
		stopProfiles()
		os.Exit(code)
	}
	if st != nil {
		fmt.Fprintf(os.Stderr, "sweep: %s holds %d completed job(s) (%d quarantined)\n",
			st.Dir(), st.Loaded(), st.Quarantined())
		armCrashAfter(st)
	}
	if !*quiet {
		r.JobProgress = os.Stderr
	}
	if *verbose {
		r.Progress = os.Stderr
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
	}
	if *telDir != "" {
		if err := os.MkdirAll(*telDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		r.TelemetryDir = *telDir
		r.SampleInterval = *sampleIvl
	}
	report := jsonReport{Scale: sc.Name, Jobs: r.Jobs}
	failedJobs := 0
	for _, e := range selected {
		if ctx.Err() != nil {
			break
		}
		start := time.Now()
		fmt.Printf("# %s — %s (%s scale)\n", e.ID, e.Title, sc.Name)
		tables := e.Run(r)
		if ctx.Err() != nil {
			// Interrupted mid-experiment: the aborted jobs' tables are
			// gap-ridden and misleading — discard them and exit below.
			break
		}
		// Mark this experiment's gaps in its own output, deterministically
		// (failures are as reproducible as the simulations themselves).
		fails := r.DrainFailures()
		failedJobs += len(fails)
		exp.AnnotateGaps(tables, fails)
		for _, t := range tables {
			fmt.Println(t)
			if *csvDir != "" {
				if err := writeCSV(*csvDir, t); err != nil {
					fmt.Fprintln(os.Stderr, err)
					exit(1)
				}
			}
		}
		fmt.Println()
		// Wall-clock lines are scheduling-dependent; keep stdout
		// byte-identical across -jobs values by reporting them on stderr.
		fmt.Fprintf(os.Stderr, "# %s done in %v\n", e.ID, time.Since(start).Round(time.Millisecond))
		report.Experiments = append(report.Experiments, jsonExperiment{
			ID: e.ID, Title: e.Title, Tables: tables,
		})
	}
	if ctx.Err() != nil {
		stopSignals() // a second ^C now kills the process the default way
		if st != nil {
			fmt.Fprintf(os.Stderr, "sweep: interrupted; %d completed result(s) remain durable in %s\n",
				st.Len(), st.Dir())
			st.Close()
		} else {
			fmt.Fprintln(os.Stderr, "interrupted")
		}
		exit(130)
	}
	if *jsonDest != "" {
		if err := writeJSON(*jsonDest, report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
	}
	if st != nil {
		fmt.Fprintf(os.Stderr, "sweep: replayed %d cached result(s), store now holds %d\n",
			r.ResumedJobs(), st.Len())
		if err := st.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			exit(1)
		}
	}
	if err := r.StoreErr(); err != nil {
		fmt.Fprintf(os.Stderr, "sweep: checkpoint incomplete: %v\n", err)
		exit(1)
	}
	if err := r.TelemetryErr(); err != nil {
		fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
		exit(1)
	}
	if *check {
		// The audit summary goes to stderr so stdout stays byte-identical
		// with unaudited runs.
		if r.AuditSummary(os.Stderr) > 0 {
			exit(1)
		}
	}
	if failedJobs > 0 {
		// Degradation summary: the sweep completed, but with gaps. This is
		// on stdout — a degraded result must not look like a clean one —
		// and deterministic, so resumed runs stay byte-identical.
		fmt.Printf("sweep degraded: %d job(s) failed; affected cells are marked %s above\n",
			failedJobs, exp.GapCell)
		exit(1)
	}
	exit(0)
}

// writeMetrics renders the final exposition at exit: to stderr for '-', or
// atomically to a file. A sweep's stdout never carries metrics.
func writeMetrics(dest string, reg *metrics.Registry) error {
	switch dest {
	case "":
		return nil
	case "-":
		return reg.WriteText(os.Stderr)
	}
	return store.WriteFileAtomic(dest, reg.WriteText)
}

// openStore resolves the -checkpoint/-resume flags into an open result
// store, or nil when neither was given.
func openStore(checkpoint, resumeDir string, sc exp.Scale) (*store.Store, error) {
	man := store.Manifest{
		Version:   store.Version,
		ScaleName: sc.Name,
		ScaleFP:   sc.Fingerprint(),
		Seed:      sc.Seed,
	}
	switch {
	case resumeDir != "":
		return store.Open(resumeDir, man)
	case checkpoint != "":
		return store.Create(checkpoint, man)
	}
	return nil, nil
}

// armCrashAfter wires the crash-injection harness: when
// EXPERIMENTS_CRASH_AFTER=N is set, the process SIGKILLs itself right after
// the Nth result becomes durable — a real mid-sweep crash at a
// deterministic point, used by the kill-and-resume end-to-end test.
func armCrashAfter(st *store.Store) {
	v := os.Getenv("EXPERIMENTS_CRASH_AFTER")
	if v == "" {
		return
	}
	after, err := strconv.Atoi(v)
	if err != nil || after < 1 {
		fmt.Fprintf(os.Stderr, "invalid EXPERIMENTS_CRASH_AFTER %q\n", v)
		os.Exit(2)
	}
	st.SetAfterAppend(func(total int) {
		if total >= after {
			p, _ := os.FindProcess(os.Getpid())
			p.Kill()
			select {} // die before the append is acknowledged
		}
	})
}

// jsonReport is the -json results document: everything the text tables
// carry, machine-readable, with no scheduling-dependent fields so the same
// run configuration always serializes identically.
type jsonReport struct {
	Scale       string           `json:"scale"`
	Jobs        int              `json:"jobs"`
	Experiments []jsonExperiment `json:"experiments"`
}

type jsonExperiment struct {
	ID     string      `json:"id"`
	Title  string      `json:"title"`
	Tables []exp.Table `json:"tables"`
}

// writeJSON writes the report atomically (temp file + fsync + rename), so a
// crash mid-write never leaves a truncated results file that parses as a
// partial run.
func writeJSON(dest string, report jsonReport) error {
	emit := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	if dest == "-" {
		return emit(os.Stdout)
	}
	return store.WriteFileAtomic(dest, emit)
}

// writeCSV saves one result table as <dir>/<id>.csv, atomically (see
// writeJSON).
func writeCSV(dir string, t exp.Table) error {
	return store.WriteFileAtomic(filepath.Join(dir, t.ID+".csv"), func(iw io.Writer) error {
		w := csv.NewWriter(iw)
		if err := w.Write(t.Columns); err != nil {
			return err
		}
		for _, row := range t.Rows {
			if err := w.Write(row); err != nil {
				return err
			}
		}
		w.Flush()
		return w.Error()
	})
}
