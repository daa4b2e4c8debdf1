package workloads

import (
	"math/rand"
	"runtime"
	"testing"

	"streamline/internal/mem"
	"streamline/internal/trace"
)

func newTestRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestRegistryComplete(t *testing.T) {
	if n := len(All()); n < 15 {
		t.Fatalf("only %d workloads registered, want >= 15", n)
	}
	suites := map[Suite]int{}
	irregular := 0
	for _, w := range All() {
		suites[w.Suite]++
		if w.Irregular {
			irregular++
		}
	}
	for _, suite := range []Suite{SPEC06, SPEC17, GAP} {
		if suites[suite] < 4 {
			t.Errorf("suite %s has %d workloads, want >= 4", suite, suites[suite])
		}
	}
	if irregular < 6 {
		t.Errorf("irregular subset has %d workloads, want >= 6", irregular)
	}
}

func TestGetKnownAndUnknown(t *testing.T) {
	if _, err := Get("pr"); err != nil {
		t.Errorf("Get(pr) failed: %v", err)
	}
	if _, err := Get("no-such-workload"); err == nil {
		t.Error("Get of unknown workload did not fail")
	}
}

func TestAllSortedAndUnique(t *testing.T) {
	names := Names(All())
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("All() not sorted/unique at %q >= %q", names[i-1], names[i])
		}
	}
}

// drain pulls n records from a fresh trace of w.
func drain(t *testing.T, w Workload, n int, seed int64) []trace.Record {
	t.Helper()
	tr := w.NewTrace(Scale{Footprint: 0.05}, seed)
	recs := make([]trace.Record, 0, n)
	for len(recs) < n {
		r, ok := tr.Next()
		if !ok {
			t.Fatalf("%s: trace ended after %d records", w.Name, len(recs))
		}
		recs = append(recs, r)
	}
	return recs
}

func TestEveryWorkloadGenerates(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			recs := drain(t, w, 5000, 42)
			pcs := map[mem.PC]bool{}
			lines := map[mem.Line]bool{}
			for _, r := range recs {
				if r.PC == 0 {
					t.Fatal("record with zero PC")
				}
				if r.Addr < 1<<32 {
					t.Fatalf("record address %#x below arena base", r.Addr)
				}
				pcs[r.PC] = true
				lines[mem.LineOf(r.Addr)] = true
			}
			if len(lines) < 16 {
				t.Errorf("only %d distinct lines in 5000 records", len(lines))
			}
		})
	}
}

func TestDeterminismAcrossInstances(t *testing.T) {
	for _, w := range All() {
		a := drain(t, w, 2000, 7)
		b := drain(t, w, 2000, 7)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: record %d differs between identically seeded traces", w.Name, i)
			}
		}
	}
}

// TestResetReplaysIdentically: Reset rewinds to the identical stream wherever
// it lands — early in the first chunk, mid-chunk, on a chunk boundary, and in
// the second lap after an end-of-lap mutation (a mcf06 lap at this footprint
// is ~6.9k records) — and a second trace of the same workload pulled in
// lockstep neither disturbs the first nor is disturbed by its Reset.
func TestResetReplaysIdentically(t *testing.T) {
	w, err := Get("mcf06")
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, w, 20_000, 9)
	expect := func(tr trace.Trace, what string, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if r, ok := tr.Next(); !ok || r != want[i] {
				t.Fatalf("%s: record %d is %+v (ok=%v), want %+v", what, i, r, ok, want[i])
			}
		}
	}
	for _, k := range []int{1000, chunkRecords + chunkRecords/2, 2 * chunkRecords, 9000} {
		tr := w.NewTrace(Scale{Footprint: 0.05}, 9)
		other := w.NewTrace(Scale{Footprint: 0.05}, 9)
		for i := 0; i < k; i++ {
			expect(tr, "before Reset", i, i+1)
			expect(other, "interleaved trace", i, i+1)
		}
		tr.Reset()
		for i := 0; i < k; i++ {
			expect(tr, "after Reset", i, i+1)
			expect(other, "interleaved trace after the other's Reset", k+i, k+i+1)
		}
		expect(tr, "past the reset point", k, len(want))
	}
}

// TestTraceMemoryBounded: a trace holds one chunk however large the lap. At
// footprint 1.0 a libquantum06 lap is 1.57M records — 38 MB as a whole-lap
// buffer, ~200 MB allocated while growing it — so pulling more than a lap
// within 256 KB, and steady-state Next without a single allocation, hold only
// when nothing scales with the lap.
func TestTraceMemoryBounded(t *testing.T) {
	w, err := Get("libquantum06")
	if err != nil {
		t.Fatal(err)
	}
	tr := w.NewTrace(Scale{Footprint: 1}, 1)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < 2_000_000; i++ {
		if _, ok := tr.Next(); !ok {
			t.Fatalf("trace ended after %d records", i)
		}
	}
	runtime.ReadMemStats(&ms1)
	if got := ms1.TotalAlloc - ms0.TotalAlloc; got > 256<<10 {
		t.Errorf("2M records allocated %d bytes, want <= 256 KB", got)
	}
	// Steady state, chunk refills and a lap wrap included.
	if got := testing.AllocsPerRun(10, func() {
		for i := 0; i < 200_000; i++ {
			tr.Next()
		}
	}); got != 0 {
		t.Errorf("steady-state Next allocates %.1f times per 200k records, want 0", got)
	}
}

// TestEmptyLapEndsTrace: a lap that emits no record ends the trace rather than
// spinning, on every call and after every rewind.
func TestEmptyLapEndsTrace(t *testing.T) {
	w := Workload{Name: "empty", Build: func(Scale) LapSource {
		return &stencilSource{rows: 2, cols: 8} // no interior rows
	}}
	tr := w.NewTrace(Scale{Footprint: 1}, 1)
	for i := 0; i < 3; i++ {
		tr.Reset()
		if r, ok := tr.Next(); ok {
			t.Fatalf("call %d: empty workload produced %+v", i, r)
		}
		if c := tr.NextChunk(); len(c) != 0 {
			t.Fatalf("call %d: empty workload produced a run of %d records", i, len(c))
		}
	}
}

// TestChunkIsTheGeneratorsBuffer: a workload trace hands out the unread rest of
// the chunk it generated into — no copy, nothing generated for the occasion —
// and steady-state NextChunk allocates nothing.
func TestChunkIsTheGeneratorsBuffer(t *testing.T) {
	w, err := Get("lbm17")
	if err != nil {
		t.Fatal(err)
	}
	lt := w.NewTrace(Scale{Footprint: 0.1}, 1).(*lapTrace)
	for i := 0; i < 3; i++ {
		lt.Next()
	}
	step := lt.step
	c := lt.NextChunk()
	if len(c) != len(lt.e.buf)-3 || &c[0] != &lt.e.buf[3] {
		t.Fatalf("run of %d records at %p, want the %d unread ones at %p", len(c), &c[0], len(lt.e.buf)-3, &lt.e.buf[3])
	}
	if lt.step != step {
		t.Errorf("handing out a generated chunk ran the generator from step %d to %d", step, lt.step)
	}
	if got := testing.AllocsPerRun(100, func() { lt.NextChunk() }); got != 0 {
		t.Errorf("steady-state NextChunk allocates %.1f times per call, want 0", got)
	}
}

func TestSeedChangesTrace(t *testing.T) {
	w, _ := Get("pr")
	a := drain(t, w, 1000, 1)
	b := drain(t, w, 1000, 2)
	same := 0
	for i := range a {
		if a[i].Addr == b[i].Addr {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical traces")
	}
}

func TestChaseWorkloadsRepeatSequences(t *testing.T) {
	// A stable pointer chase must revisit the same line sequence across
	// laps: the fraction of (line -> next line) correlations from lap 1
	// that recur in lap 2 should be high. This is the property temporal
	// prefetchers rely on.
	w, _ := Get("sphinx06")
	src := w.Build(Scale{Footprint: 0.02})
	src.Reset(newTestRNG(3))
	e := w.emitter()
	lap := func() map[[2]mem.Line]bool {
		e.buf = e.buf[:0]
		for i := 0; i < src.Steps(); i++ {
			src.Step(i, &e)
		}
		src.EndLap()
		pairs := map[[2]mem.Line]bool{}
		for i := 1; i < len(e.buf); i++ {
			pairs[[2]mem.Line{mem.LineOf(e.buf[i-1].Addr), mem.LineOf(e.buf[i].Addr)}] = true
		}
		return pairs
	}
	p1, p2 := lap(), lap()
	common := 0
	for k := range p1 {
		if p2[k] {
			common++
		}
	}
	if frac := float64(common) / float64(len(p1)); frac < 0.95 {
		t.Errorf("only %.1f%% of correlations repeat across laps, want >= 95%%", frac*100)
	}
}

func TestStreamingWorkloadIsSequential(t *testing.T) {
	w, _ := Get("libquantum06")
	recs := drain(t, w, 4000, 11)
	seq := 0
	for i := 1; i < len(recs); i++ {
		d := int64(mem.LineOf(recs[i].Addr)) - int64(mem.LineOf(recs[i-1].Addr))
		if d == 0 || d == 1 {
			seq++
		}
	}
	if frac := float64(seq) / float64(len(recs)-1); frac < 0.9 {
		t.Errorf("streaming workload only %.1f%% sequential", frac*100)
	}
}

func TestMixesDeterministicAndSized(t *testing.T) {
	a := Mixes(10, 4, 99)
	b := Mixes(10, 4, 99)
	if len(a) != 10 {
		t.Fatalf("got %d mixes, want 10", len(a))
	}
	for i := range a {
		if len(a[i].Members) != 4 {
			t.Fatalf("mix %d has %d members, want 4", i, len(a[i].Members))
		}
		for c := range a[i].Members {
			if a[i].Members[c].Name != b[i].Members[c].Name {
				t.Fatal("mixes are not deterministic")
			}
		}
	}
	c := Mixes(10, 4, 100)
	diff := false
	for i := range a {
		for j := range a[i].Members {
			if a[i].Members[j].Name != c[i].Members[j].Name {
				diff = true
			}
		}
	}
	if !diff {
		t.Error("different seeds produced identical mixes")
	}
}

func TestScaleSize(t *testing.T) {
	s := Scale{Footprint: 0.5}
	if got := s.size(1000); got != 500 {
		t.Errorf("size(1000) at 0.5 = %d, want 500", got)
	}
	if got := (Scale{}).size(1000); got != 1000 {
		t.Errorf("zero-value scale changed size: %d", got)
	}
	if got := (Scale{Footprint: 0.0001}).size(1000); got != 64 {
		t.Errorf("scale floor: got %d, want 64", got)
	}
}
