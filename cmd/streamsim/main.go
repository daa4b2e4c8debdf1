// Command streamsim runs one workload through one system configuration and
// prints its statistics — the quick way to poke at the simulator.
//
// Usage:
//
//	streamsim -workload sphinx06 -temporal streamline
//	streamsim -workload pr -l1 stride -temporal triangel -cores 4
//	streamsim -workload mcf06 -temporal streamline -telemetry out.jsonl -timeline
//	streamsim -list
//
// The configuration knobs are the same Spec cmd/streamd serves over HTTP
// (internal/serve), so a CLI run and a daemon request with equal knobs
// produce identical results. All flags are validated up front: a bad enum
// value or out-of-range knob exits 2 listing the allowed values, before any
// simulation state is built.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"streamline/internal/audit"
	"streamline/internal/exp/store"
	"streamline/internal/serve"
	"streamline/internal/sim"
	"streamline/internal/telemetry"
	"streamline/internal/workloads"
)

func main() {
	var (
		workload  = flag.String("workload", "sphinx06", "workload name")
		l1        = flag.String("l1", serve.DefaultL1, "L1D prefetcher: "+strings.Join(serve.L1Options, "|"))
		l2        = flag.String("l2", serve.DefaultL2, "L2 prefetcher: "+strings.Join(serve.L2Options, "|"))
		temporal  = flag.String("temporal", serve.DefaultTemporal, "temporal prefetcher: "+strings.Join(serve.TemporalOptions, "|"))
		cores     = flag.Int("cores", serve.DefaultCores, "core count (same workload on every core)")
		footprint = flag.Float64("footprint", serve.DefaultFootprint, "workload footprint scale")
		warmup    = flag.Uint64("warmup", serve.DefaultWarmup, "warmup instructions")
		measure   = flag.Uint64("measure", serve.DefaultMeasure, "measured instructions")
		metaKB    = flag.Int("meta-kb", serve.DefaultMetaKB, "max metadata partition per core (KB)")
		llcSets   = flag.Int("llc-sets", serve.DefaultLLCSets, "LLC sets per core (256=256KB, 2048=2MB)")
		seed      = flag.Int64("seed", serve.DefaultSeed, "workload seed")
		list      = flag.Bool("list", false, "list workloads and exit")
		check     = flag.Bool("check", false, "enable the runtime invariant audit; exit 1 on violations")

		telOut     = flag.String("telemetry", "", "write interval samples and events as JSONL to this file")
		telLevel   = flag.String("telemetry-level", "info", "minimum event severity to record: debug|info|warn")
		sampleIvl  = flag.Uint64("sample-interval", 100_000, "measured instructions between telemetry samples per core (0 disables sampling)")
		timeline   = flag.Bool("timeline", false, "render the per-interval IPC/MPKI timeline on stderr after the run")
		jsonDest   = flag.String("json", "", "write the final result as JSON to this file ('-' for stdout)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("workloads:")
		for _, w := range workloads.All() {
			irr := ""
			if w.Irregular {
				irr = " (irregular)"
			}
			fmt.Printf("  %-14s %s%s\n", w.Name, w.Suite, irr)
		}
		return
	}

	// Every knob is validated up front through the same Spec the daemon
	// serves; a bad value exits 2 naming the allowed ones.
	sp := serve.Spec{
		Workload:  *workload,
		L1:        *l1,
		L2:        *l2,
		Temporal:  *temporal,
		Cores:     *cores,
		Footprint: *footprint,
		Warmup:    *warmup,
		Measure:   *measure,
		MetaKB:    *metaKB,
		LLCSets:   *llcSets,
		Seed:      *seed,
	}
	if err := sp.Normalize(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sev, err := telemetry.ParseSeverity(*telLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg, err := sp.Config()
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
	exit := func(code int) {
		stopProfiles()
		os.Exit(code)
	}

	var aud *audit.Auditor
	if *check {
		aud = audit.New(sp.Seed)
		aud.Label = fmt.Sprintf("%s|%s|%s|%s|x%d", sp.Workload, sp.L1, sp.L2, sp.Temporal, sp.Cores)
		cfg.Audit = aud
	}

	// Telemetry: a sink only when an output file is requested; the timeline
	// works sink-less by retaining interval records in memory. Both write
	// nothing to stdout, so instrumented runs print identical statistics.
	var col *telemetry.Collector
	var telFile *os.File
	if *telOut != "" || *timeline {
		var sink *telemetry.Sink
		if *telOut != "" {
			f, err := os.Create(*telOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(1)
			}
			telFile = f
			sink = telemetry.NewSink(f)
			sink.SetMinSeverity(sev)
		}
		col = telemetry.New(sink, *sampleIvl)
		if *timeline {
			col.KeepIntervals()
		}
		cfg.Telemetry = col
	}

	sys, err := sp.NewSystem(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}

	// Drive the engine in epochs so SIGINT stops the run at the next epoch
	// boundary instead of being ignored for the rest of a long simulation.
	// Stepping does not perturb the statistics: a completed run is
	// bit-identical to one-shot sys.Run().
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	var last sim.Progress
	res, err := sys.RunCtx(ctx, 0, func(p sim.Progress) { last = p })
	if err != nil {
		fmt.Fprintf(os.Stderr, "canceled after %d records (%.1f%% of measure)\n",
			last.Records, 100*last.MeasuredFraction())
		exit(130)
	}
	stopSignals()

	fmt.Printf("workload=%s cores=%d l1=%s l2=%s temporal=%s\n",
		sp.Workload, sp.Cores, sp.L1, sp.L2, sp.Temporal)
	for i, c := range res.Cores {
		fmt.Printf("core %d: IPC %.4f  (%d instr, %d cycles)\n", i, c.IPC, c.Instructions, c.Cycles)
		fmt.Printf("  L1D: %.1f%% hit, %d misses     L2: %.1f%% hit, %d misses (%.2f MPKI)\n",
			c.L1D.DemandHitRate()*100, c.L1D.DemandMisses,
			c.L2.DemandHitRate()*100, c.L2.DemandMisses, c.L2MPKI())
		if c.PrefetchesIssued > 0 {
			fmt.Printf("  prefetch: %d issued, %d L2 fills, %d useful (%.1f%% accuracy)\n",
				c.PrefetchesIssued, c.L2.PrefetchFills, c.L2.UsefulPrefetches,
				c.PrefetchAccuracy()*100)
		}
		for _, p := range c.Prefetchers {
			if p.Issued == 0 && p.Fills == 0 {
				continue
			}
			fmt.Printf("    %-8s %d issued (%d dup-dropped), %d fills: %d timely + %d late useful, %d evicted unused (%.1f%% accuracy)\n",
				p.Source+":", p.Issued, p.DroppedDuplicate, p.Fills,
				p.UsefulTimely, p.UsefulLate, p.EvictedUnused, p.Accuracy()*100)
		}
		if c.Meta.Lookups > 0 {
			fmt.Printf("  metadata: %d lookups (%.1f%% trigger hit), %d reads, %d writes, %d rearrange blocks, %d filtered\n",
				c.Meta.Lookups, c.Meta.TriggerHitRate()*100, c.Meta.Reads, c.Meta.Writes,
				c.Meta.RearrangeReads+c.Meta.RearrangeWrites, c.Meta.FilteredInserts)
		}
	}
	fmt.Printf("LLC: %.1f%% demand hit, %d meta reads, %d meta writes\n",
		res.LLC.DemandHitRate()*100, res.LLC.MetaReads, res.LLC.MetaWrites)
	fmt.Printf("DRAM: %d reads, %d writes, %.1f%% row hits, %d queue cycles\n",
		res.DRAM.Reads, res.DRAM.Writes, res.DRAM.RowHitRate()*100, res.DRAM.QueueCycles)

	if *timeline {
		col.Timeline(os.Stderr)
	}
	if err := col.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
		exit(1)
	}
	if telFile != nil {
		if err := telFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
			exit(1)
		}
	}

	if *jsonDest != "" {
		// The -json document is the daemon's response document, so CLI and
		// HTTP results of the same knobs compare byte-for-byte.
		if err := writeJSON(*jsonDest, serve.BuildResult(sp, res)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
	}

	if aud != nil {
		// Audit output goes to stderr so stdout stays byte-identical with
		// unaudited runs.
		if aud.Total() > 0 {
			aud.WriteReport(os.Stderr)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "audit: clean (%d scans)\n", aud.Scans())
	}
	stopProfiles()
}

// writeJSON emits the result document; a file destination is written
// atomically (temp file + fsync + rename), so a failed write never leaves a
// truncated document behind.
func writeJSON(dest string, res serve.Result) error {
	emit := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	if dest == "-" {
		return emit(os.Stdout)
	}
	return store.WriteFileAtomic(dest, emit)
}
