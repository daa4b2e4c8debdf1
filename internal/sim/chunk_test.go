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

// nextOnlyTrace serves one-record runs read through its trace's Next, so the
// engine meets the trace one record at a time — the record-by-record reader
// that runs must stay equivalent to.
type nextOnlyTrace struct {
	trace.Trace
	rec [1]trace.Record
}

func (n *nextOnlyTrace) NextChunk() []trace.Record {
	r, ok := n.Trace.Next()
	if !ok {
		return nil
	}
	n.rec[0] = r
	return n.rec[:]
}

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
			nextOnly := runArm(t, names, engines, func(tr trace.Trace) trace.Trace { return &nextOnlyTrace{Trace: tr} })
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

// TestReaderTraceRunsThroughFallback: records read one at a time (a one-record
// run wrapper over a trace.Slice) must simulate exactly like the same records
// read as runs (trace.Slice, the zero-copy path), over several rewinds.
func TestReaderTraceRunsThroughFallback(t *testing.T) {
	w, err := workloads.Get("pr")
	if err != nil {
		t.Fatal(err)
	}
	var recs []trace.Record
	src := w.NewTrace(workloads.Scale{Footprint: 0.05}, 3)
	for instr := uint64(0); instr < 60_000; {
		r, ok := src.Next()
		if !ok {
			t.Fatalf("trace ended after %d records", len(recs))
		}
		recs = append(recs, r)
		instr += r.Instructions()
	}
	run := func(tr trace.Trace) Result {
		cfg := smallConfig(1)
		cfg.WarmupInstructions, cfg.MeasureInstructions = 30_000, 120_000 // 2.5 laps of the records
		cfg.L1DPrefetcher = strideFactory
		return New(cfg).RunTrace(tr)
	}
	nextOnly, chunked := run(&nextOnlyTrace{Trace: trace.NewSlice(recs)}), run(trace.NewSlice(recs))
	if !reflect.DeepEqual(nextOnly, chunked) {
		t.Error("simulating records one Next at a time differs from simulating them as runs")
	}
	if nextOnly.Cores[0].Instructions == 0 {
		t.Error("nothing measured")
	}
}

// TestStepReplaysShortTrace: a trace shorter than the run replays from its
// first record — step rewinds a Slice at its end and executes its own backing
// array again, record 0 first.
func TestStepReplaysShortTrace(t *testing.T) {
	recs := make([]trace.Record, 3)
	for i := range recs {
		recs[i] = trace.Record{PC: 1, Addr: mem.Addr(i) * mem.LineSize}
	}
	sys := New(smallConfig(1))
	sys.SetTrace(0, trace.NewSlice(recs))
	cs := sys.cores[0]
	for i := 0; i < 10; i++ {
		if !sys.step(cs) {
			t.Fatalf("trace ended at step %d", i)
		}
		if &cs.recs[cs.pos-1] != &recs[i%3] {
			t.Fatalf("step %d did not execute record %d", i, i%3)
		}
	}
}

// resetCounter counts the rewinds of its trace.
type resetCounter struct {
	trace.Trace
	resets int
}

func (r *resetCounter) Reset() { r.resets++; r.Trace.Reset() }

// stepEndsCore checks that every step over tr ends the core after exactly
// one rewind — no spinning on a trace that stays empty — and that a run over
// it finishes with nothing measured.
func stepEndsCore(t *testing.T, what string, tr func() trace.Trace) {
	t.Helper()
	sys := New(smallConfig(1))
	rc := &resetCounter{Trace: tr()}
	sys.SetTrace(0, rc)
	for i := 1; i <= 3; i++ {
		if sys.step(sys.cores[0]) {
			t.Fatalf("%s: step %d executed a record", what, i)
		}
		if rc.resets != i {
			t.Fatalf("%s: %d steps rewound the trace %d times", what, i, rc.resets)
		}
	}
	if res := New(smallConfig(1)).RunTrace(tr()); res.Cores[0].Instructions != 0 {
		t.Errorf("%s: run measured %d instructions", what, res.Cores[0].Instructions)
	}
}

// TestStepEmptyTraceEndsCore: an empty trace read as runs ends its core.
func TestStepEmptyTraceEndsCore(t *testing.T) {
	stepEndsCore(t, "Slice", func() trace.Trace { return trace.NewSlice(nil) })
}

// TestStepEmptyOneRecordTraceEndsCore: an empty trace read one record at a
// time, through Next, ends its core like one read as runs.
func TestStepEmptyOneRecordTraceEndsCore(t *testing.T) {
	stepEndsCore(t, "one-record runs", func() trace.Trace { return &nextOnlyTrace{Trace: trace.NewSlice(nil)} })
}

// silentLaps is a workload's lap source with no steps: every lap is silent.
type silentLaps struct{ workloads.LapSource }

func (silentLaps) Steps() int { return 0 }

// TestStepSilentLapEndsCore: a workload whose lap emits no record ends its
// core instead of spinning through empty laps.
func TestStepSilentLapEndsCore(t *testing.T) {
	base, err := workloads.Get("lbm17")
	if err != nil {
		t.Fatal(err)
	}
	w := workloads.Workload{Name: "silent", Build: func(s workloads.Scale) workloads.LapSource {
		return silentLaps{base.Build(s)}
	}}
	stepEndsCore(t, "silent laps", func() trace.Trace { return w.NewTrace(workloads.Scale{Footprint: 0.1}, 1) })
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
