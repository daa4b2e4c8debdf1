package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"streamline/internal/audit"
	"streamline/internal/mem"
	"streamline/internal/meta"
	"streamline/internal/prefetch"
	"streamline/internal/serve"
)

func TestSummarize(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: Summarize must sort a copy
		}
		return xs
	}
	cases := []struct {
		n             int
		median        float64
		tailPct, tail float64
	}{
		{1, 1, 50, 1},
		{10, 5.5, 50, 5.5},
		{99, 50, 50, 50},       // 9 samples beyond p90: not enough
		{100, 50.5, 90, 90},    // exactly 10 beyond p90
		{999, 500, 90, 900},    // 9 beyond p99
		{1000, 500.5, 99, 990}, // exactly 10 beyond p99
		{10000, 5000.5, 99.9, 9990},
		{100000, 50000.5, 99.99, 99990},
	}
	for _, c := range cases {
		in := seq(c.n)
		first := in[0]
		got := Summarize(in)
		if got.N != c.n || got.Median != c.median || got.TailPct != c.tailPct || got.Tail != c.tail {
			t.Errorf("Summarize(1..%d) = %+v, want median %v and p%v = %v", c.n, got, c.median, c.tailPct, c.tail)
		}
		if in[0] != first {
			t.Errorf("Summarize(1..%d) reordered its input", c.n)
		}
	}
	if got := Summarize(nil); got != (Summary{}) {
		t.Errorf("Summarize(nil) = %+v, want the zero Summary", got)
	}
}

func TestSupportedPercentile(t *testing.T) {
	seq := make([]float64, 120)
	for i := range seq {
		seq[i] = float64(i + 1)
	}
	if v, p := supportedPercentile(seq, 90); v != 108 || p != 90 {
		t.Errorf("p90 of 1..120 = %v at p%v, want 108 at p90", v, p)
	}
	// Two samples beyond p90 of 18: fall back to what the sample supports.
	if v, p := supportedPercentile(seq[:18], 90); v != 9.5 || p != 50 {
		t.Errorf("p90 of 1..18 = %v at p%v, want the median 9.5 at p50", v, p)
	}
	// p99 of 120 is unsupported, p90 is the highest that is.
	if v, p := supportedPercentile(seq, 99); v != 108 || p != 90 {
		t.Errorf("p99 of 1..120 = %v at p%v, want 108 at p90", v, p)
	}
}

// TestCalibration: only the compute-bound metrics are rescaled, and rescaling
// must not create a value for a metric the run never wrote, or checkComplete
// could not name it.
func TestCalibration(t *testing.T) {
	vals := values{"setup_s": 10, "results_per_s": 10, "repeat_us_per_result": 10, "restart_us_per_result": 10}
	applyCalibration("serve-mixed", vals, 2)
	want := values{"setup_s": 5, "results_per_s": 20, "repeat_us_per_result": 10, "restart_us_per_result": 10}
	if !maps.Equal(vals, want) {
		t.Errorf("serve-mixed calibrated to %v, want %v", vals, want)
	}
	if err := checkComplete(endToEnd, vals); err == nil || !strings.Contains(err.Error(), "host_ns_per_record") {
		t.Errorf("checkComplete after calibration = %v, want it to name host_ns_per_record", err)
	}
	// On sim-* the two restate host_ns_per_record and follow it.
	vals = values{"host_ns_per_record": 10, "repeat_us_per_result": 10, "restart_us_per_result": 10}
	applyCalibration("sim-mix-4c", vals, 2)
	want = values{"host_ns_per_record": 5, "repeat_us_per_result": 5, "restart_us_per_result": 5}
	if !maps.Equal(vals, want) {
		t.Errorf("sim-mix-4c calibrated to %v, want %v", vals, want)
	}
}

func TestParseHistogram(t *testing.T) {
	text := `# TYPE streamd_request_stage_seconds histogram
streamd_request_stage_seconds_bucket{stage="decode",le="0.0001"} 3
streamd_request_stage_seconds_sum{stage="decode"} 0.00012
streamd_request_stage_seconds_count{stage="decode"} 4
streamd_request_stage_seconds_sum{stage="lookup"} 9
streamd_request_stage_seconds_count{stage="lookup"} 3
`
	if h := parseHistogram(text, "streamd_request_stage_seconds", `stage="decode"`); h.Sum != 0.00012 || h.Count != 4 {
		t.Errorf("decode series = %+v", h)
	}
	if m := parseHistogram(text, "streamd_request_stage_seconds", `stage="lookup"`).Mean(); m != 3 {
		t.Errorf("lookup mean = %v, want 3", m)
	}
	if m := parseHistogram(text, "absent", "").Mean(); m != 0 {
		t.Errorf("absent mean = %v, want 0", m)
	}
}

// fakeEngine is a prefetcher with none of the optional interfaces; fakeOf
// adds the ones a mask selects.
type fakeEngine struct{ trained int }

func (f *fakeEngine) Name() string { return "fake" }
func (f *fakeEngine) Train(_ prefetch.Event, out []prefetch.Request) []prefetch.Request {
	f.trained++
	return append(out, prefetch.Request{Addr: 64})
}

type fakeAC struct{}

func (fakeAC) ObserveAccuracy(float64) {}

type fakeMR struct{}

func (fakeMR) MetaStats() meta.Stats { return meta.Stats{Lookups: 7} }

type fakeLO struct{}

func (fakeLO) ObserveLLCData(int, mem.Line) {}

// fakeOf returns base implementing AccuracyConsumer (bit 0), MetaReporter
// (bit 1) and LLCDataObserver (bit 2) as mask says.
func fakeOf(base *fakeEngine, mask int) prefetch.Prefetcher {
	switch mask {
	case 1:
		return struct {
			*fakeEngine
			fakeAC
		}{base, fakeAC{}}
	case 2:
		return struct {
			*fakeEngine
			fakeMR
		}{base, fakeMR{}}
	case 3:
		return struct {
			*fakeEngine
			fakeAC
			fakeMR
		}{base, fakeAC{}, fakeMR{}}
	case 4:
		return struct {
			*fakeEngine
			fakeLO
		}{base, fakeLO{}}
	case 5:
		return struct {
			*fakeEngine
			fakeAC
			fakeLO
		}{base, fakeAC{}, fakeLO{}}
	case 6:
		return struct {
			*fakeEngine
			fakeMR
			fakeLO
		}{base, fakeMR{}, fakeLO{}}
	case 7:
		return struct {
			*fakeEngine
			fakeAC
			fakeMR
			fakeLO
		}{base, fakeAC{}, fakeMR{}, fakeLO{}}
	}
	return base
}

// TestWrapPrefetcherExposesExactlyInnerInterfaces covers all eight
// combinations of the three interfaces the simulator type-asserts.
func TestWrapPrefetcherExposesExactlyInnerInterfaces(t *testing.T) {
	for mask := 0; mask < 8; mask++ {
		base := &fakeEngine{}
		var h hotTimer
		w := wrapPrefetcher(fakeOf(base, mask), &h)
		_, ac := w.(prefetch.AccuracyConsumer)
		mr, isMR := w.(prefetch.MetaReporter)
		_, lo := w.(prefetch.LLCDataObserver)
		if ac != (mask&1 != 0) || isMR != (mask&2 != 0) || lo != (mask&4 != 0) {
			t.Errorf("mask %03b: wrapper exposes AccuracyConsumer=%v MetaReporter=%v LLCDataObserver=%v", mask, ac, isMR, lo)
		}
		if isMR && mr.MetaStats().Lookups != 7 {
			t.Errorf("mask %03b: MetaStats not forwarded", mask)
		}
		out := w.Train(prefetch.Event{}, nil)
		if w.Name() != "fake" || len(out) != 1 || base.trained != 1 || h.calls != 1 || h.requests != 1 {
			t.Errorf("mask %03b: Train not forwarded and counted once: out=%d trained=%d timer=%+v", mask, len(out), base.trained, h)
		}
	}
}

type fakeSP struct{ st *meta.Store }

func (f fakeSP) Store() *meta.Store { return f.st }

// TestWrapPrefetcherForwardsStore: the simulator's fourth assertion on a
// temporal engine. The wrapper hands over the engine's store, and nil — which
// the simulator treats as no store — for an engine without one.
func TestWrapPrefetcherForwardsStore(t *testing.T) {
	type storeProvider interface{ Store() *meta.Store }
	st := meta.NewStore(metaSchemes["FTS"], &meta.NullBridge{Sets: 64, Ways: 16})
	with := struct {
		*fakeEngine
		fakeSP
	}{&fakeEngine{}, fakeSP{st}}
	if got := wrapPrefetcher(with, &hotTimer{}).(storeProvider).Store(); got != st {
		t.Errorf("wrapper over an engine with a store returned %p, want %p", got, st)
	}
	if got := wrapPrefetcher(&fakeEngine{}, &hotTimer{}).(storeProvider).Store(); got != nil {
		t.Errorf("wrapper over an engine without a store returned %p, want nil", got)
	}
}

// TestDecoratedRunIsAudited: with the audit on — the partition cross-check
// reads the forwarded Store — a decorated Streamline run must report the same
// result and the same clean audit as the undecorated run.
func TestDecoratedRunIsAudited(t *testing.T) {
	sp := mustSpec(serve.Spec{Workload: "sphinx06", L1: "stride", Temporal: "streamline", Warmup: 10_000, Measure: 30_000})
	run := func(decorate bool) (string, *audit.Auditor) {
		cfg, err := sp.Config()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Audit = audit.New(1)
		cfg.AuditInterval = 1000
		if decorate {
			instrument(&cfg, sp.L1, sp.L2, sp.Temporal)
		}
		sys, err := sp.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return digestOf(sys.Run()), cfg.Audit
	}
	plainDigest, plainAudit := run(false)
	gotDigest, gotAudit := run(true)
	if gotDigest != plainDigest {
		t.Errorf("decorated audited digest %s, undecorated %s", gotDigest, plainDigest)
	}
	if err := gotAudit.Err(); err != nil {
		t.Errorf("decorated run's audit: %v", err)
	}
	if gotAudit.Scans() == 0 || gotAudit.Scans() != plainAudit.Scans() {
		t.Errorf("decorated run ran %d audit scans, undecorated %d", gotAudit.Scans(), plainAudit.Scans())
	}
}

func quickEnv(t *testing.T) *env {
	t.Helper()
	return &env{seed: 1, quick: true, procs: runtime.GOMAXPROCS(0), tmp: t.TempDir()}
}

// TestTracedDigestsEqualUntraced runs every one of the nine prefetch engines
// with and without the timing decorators: the results must be identical.
func TestTracedDigestsEqualUntraced(t *testing.T) {
	e := quickEnv(t)
	in, err := materialize(newSimIrregular(e).probeJob())
	if err != nil {
		t.Fatal(err)
	}
	in.spec.Warmup, in.spec.Measure = 20_000, 60_000
	seen := map[string]bool{}
	tr := newTracer()
	for _, p := range enginePairs {
		sp := in.spec
		sp.L1, sp.L2, sp.Temporal = p[0], p[1], p[2]
		j := simJob{label: p[0] + "+" + p[1] + "+" + p[2], spec: mustSpec(sp)}
		plain, _, err := j.run(nil)
		if err != nil {
			t.Fatal(err)
		}
		traced, timers, err := j.run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if plain.digest != traced.digest {
			t.Errorf("%s: traced digest %s, untraced %s", j.label, traced.digest, plain.digest)
		}
		if v := lawViolations(traced.res); len(v) > 0 {
			t.Errorf("%s: %v", j.label, v)
		}
		for slot, name := range p {
			if name == "none" {
				continue
			}
			seen[name] = true
			if list := [][]*hotTimer{timers.l1, timers.l2, timers.temporal}[slot]; len(list) != 1 || list[0].calls == 0 {
				t.Errorf("%s: engine %s was not timed", j.label, name)
			}
		}
	}
	for _, eng := range engines {
		if !seen[eng.name] {
			t.Errorf("engine %s is in no probe simulation", eng.name)
		}
		if calls := tr.perCall("train." + eng.name); calls <= 0 {
			t.Errorf("engine %s has no Train span", eng.name)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesBenchmarkJSON keeps the committed BENCHMARK.json equal
// to the metric table and inside the benchmark contract's limits.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want := manifest()
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(want, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc) != 6 || len(want) > 64<<10 {
		t.Errorf("manifest has %d keys and %d bytes", len(doc), len(want))
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	names := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the contract", name)
		}
		if names[name] {
			t.Errorf("name %q is used twice", name)
		}
		names[name] = true
	}
	for _, w := range workloadDefs {
		use(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q breaks the contract", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
}

// TestSmoke runs every workload untraced, and two of them traced, at -quick
// budgets: every listed metric must be reported and no operation may fail.
func TestSmoke(t *testing.T) {
	for _, w := range workloadDefs {
		for _, traced := range []bool{false, true} {
			if traced && w.Name != "sim-mix-4c" && w.Name != "serve-mixed" {
				continue // the probes are the same code on every workload
			}
			rep, defs, err := runOne(w.Name, traced, quickEnv(t))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			res := toResult(defs, rep)
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.Name, traced, res.Failed, res.Attempted, rep.ops.notes)
			}
			if !traced {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, m.Value)
					}
				}
			}
		}
	}
}
