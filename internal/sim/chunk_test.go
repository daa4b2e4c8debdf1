package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"streamline/internal/mem"
	"streamline/internal/trace"
	"streamline/internal/workloads"
)

// nextOnlyTrace hides a trace's trace.Chunker capability, so the engine reads
// it one Next at a time through trace.Looping's fallback — the pre-chunk path.
type nextOnlyTrace struct{ trace.Trace }

// runArm simulates the named workloads (one per core) under the given engines
// with every trace passed through wrap.
func runArm(t *testing.T, names []string, engines []string, wrap func(trace.Trace) trace.Trace) Result {
	t.Helper()
	cfg := smallConfig(len(names))
	cfg.WarmupInstructions, cfg.MeasureInstructions = 40_000, 160_000
	for _, e := range engines {
		if err := Attach(&cfg, e, Knobs{}); err != nil {
			t.Fatal(err)
		}
	}
	sys := New(cfg)
	for c, name := range names {
		w, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		sys.SetTrace(c, wrap(w.NewTrace(workloads.Scale{Footprint: 0.1}, int64(5+c))))
	}
	return sys.Run()
}

// TestChunkedRunEqualsNextOnlyRun: reading runs changes when the engine calls
// its traces, never what it simulates. One core and a four-core mix (where the
// scheduler interleaves four half-read runs), with and without Streamline.
func TestChunkedRunEqualsNextOnlyRun(t *testing.T) {
	mixes := map[string][]string{
		"1core": {"mcf06"},
		"4core": {"sphinx06", "mcf06", "bfs", "libquantum06"},
	}
	arms := map[string][]string{"none": nil, "streamline": {"stride", "streamline"}}
	for mixName, names := range mixes {
		for armName, engines := range arms {
			chunked := runArm(t, names, engines, func(tr trace.Trace) trace.Trace { return tr })
			nextOnly := runArm(t, names, engines, func(tr trace.Trace) trace.Trace { return nextOnlyTrace{tr} })
			if !reflect.DeepEqual(chunked, nextOnly) {
				t.Errorf("%s/%s: chunked and Next-only runs differ:\n%s", mixName, armName, diffResults(chunked, nextOnly))
			}
			if chunked.Cores[0].Instructions == 0 {
				t.Errorf("%s/%s: nothing measured", mixName, armName)
			}
		}
	}
}

// diffResults names the cores whose results differ, with both cycle counts.
func diffResults(a, b Result) string {
	var out bytes.Buffer
	for c := range a.Cores {
		if !reflect.DeepEqual(a.Cores[c], b.Cores[c]) {
			fmt.Fprintf(&out, "  core %d: %d vs %d cycles, L2 %+v vs %+v\n", c,
				a.Cores[c].Cycles, b.Cores[c].Cycles, a.Cores[c].L2, b.Cores[c].L2)
		}
	}
	return out.String()
}

// TestReaderTraceRunsThroughFallback: a trace file read back by trace.Reader
// has no chunk capability; simulating it must equal simulating the records it
// holds from memory (trace.Slice, the zero-copy path).
func TestReaderTraceRunsThroughFallback(t *testing.T) {
	w, err := workloads.Get("pr")
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	tw, err := trace.NewWriter(&file)
	if err != nil {
		t.Fatal(err)
	}
	src := trace.NewLimit(w.NewTrace(workloads.Scale{Footprint: 0.05}, 3), 60_000)
	for r, ok := src.Next(); ok; r, ok = src.Next() {
		if err := tw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadAll(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	run := func(tr trace.Trace) Result {
		cfg := smallConfig(1)
		cfg.WarmupInstructions, cfg.MeasureInstructions = 30_000, 120_000 // 2.5 laps of the file
		cfg.L1DPrefetcher = strideFactory
		return New(cfg).RunTrace(tr)
	}
	fromFile, fromMemory := run(rd), run(trace.NewSlice(recs))
	if !reflect.DeepEqual(fromFile, fromMemory) {
		t.Error("simulating a trace file differs from simulating its records from memory")
	}
	if fromFile.Cores[0].Instructions == 0 {
		t.Error("nothing measured")
	}
}

// TestSetTraceDropsLeftoverRun: a core that read part of a run and is then
// given another trace must continue with the new trace's first record, not
// with the old run's remainder.
func TestSetTraceDropsLeftoverRun(t *testing.T) {
	mk := func(base mem.Addr) []trace.Record {
		recs := make([]trace.Record, 100)
		for i := range recs {
			recs[i] = trace.Record{PC: 1, Addr: base + mem.Addr(i)*mem.LineSize}
		}
		return recs
	}
	sys := New(smallConfig(1))
	sys.SetTrace(0, trace.NewSlice(mk(1<<20)))
	cs := sys.cores[0]
	for i := 0; i < 50; i++ {
		if !sys.step(cs) {
			t.Fatal("trace ended early")
		}
	}
	if len(cs.recs)-cs.pos != 50 {
		t.Fatalf("core holds %d unread records of its run, want 50", len(cs.recs)-cs.pos)
	}
	sys.SetTrace(0, trace.NewSlice(mk(1<<30)))
	if len(cs.recs) != 0 || cs.pos != 0 {
		t.Fatalf("SetTrace left %d records at position %d", len(cs.recs), cs.pos)
	}
	before := sys.cores[0].l1d.Stats.DemandAccesses
	sys.step(cs)
	if got := sys.cores[0].l1d.Stats.DemandAccesses - before; got != 1 {
		t.Fatalf("one step made %d L1D accesses", got)
	}
	if !cs.l1d.Probe(mem.LineOf(1 << 30)) {
		t.Error("first step after SetTrace did not access the new trace's first record")
	}
	if cs.l1d.Probe(mem.LineOf(1<<20 + 50*mem.LineSize)) {
		t.Error("first step after SetTrace replayed the old run's next record")
	}
}

// TestStepSteadyStateNoAllocs: once warm, stepping allocates nothing — no run
// buffer, no record copy, nothing per chunk — over chunk refills and lap wraps.
func TestStepSteadyStateNoAllocs(t *testing.T) {
	for _, temporal := range []string{"", "triangel"} {
		cfg := smallConfig(1)
		if err := Attach(&cfg, "stride", Knobs{}); err != nil {
			t.Fatal(err)
		}
		if temporal != "" {
			if err := Attach(&cfg, temporal, Knobs{}); err != nil {
				t.Fatal(err)
			}
		}
		sys := New(cfg)
		sys.SetTrace(0, traceFor(t, "bzip206", 4))
		cs := sys.cores[0]
		for i := 0; i < 300_000; i++ { // warm: tables sized, partitions settled
			sys.step(cs)
		}
		if got := testing.AllocsPerRun(20, func() {
			for i := 0; i < 5_000; i++ {
				sys.step(cs)
			}
		}); got != 0 {
			t.Errorf("temporal=%q: steady-state step allocates %.1f times per 5000 records, want 0", temporal, got)
		}
	}
}
