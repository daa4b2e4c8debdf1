package metrics

import (
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestExpositionGolden pins the full text format: HELP/TYPE lines, family
// and series ordering, label rendering, histogram bucket cumulation, float
// formatting. Determinism of this rendering is load-bearing — the daemon's
// /metricz golden checks and any scraper config depend on it.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	last := r.Counter("zz_last_total", "sorts last")
	for range 7 {
		last.Inc()
	}
	c := r.Counter("requests_total", "requests by outcome", L("outcome", "ok"))
	for range 3 {
		c.Inc()
	}
	r.Counter("requests_total", "requests by outcome", L("outcome", "err")).Inc()
	r.GaugeFunc("queue_depth", "admitted unfinished work", func() float64 { return 4 - 1.5 })
	r.GaugeFunc("cache_entries", "live entries", func() float64 { return 12 })
	h := r.Histogram("latency_seconds", "request latency", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.1) // bounds are inclusive: lands in le="0.1"
	h.Observe(2.5) // overflows into +Inf only

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP cache_entries live entries
# TYPE cache_entries gauge
cache_entries 12
# HELP latency_seconds request latency
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.01"} 1
latency_seconds_bucket{le="0.1"} 2
latency_seconds_bucket{le="1"} 2
latency_seconds_bucket{le="+Inf"} 3
latency_seconds_sum 2.605
latency_seconds_count 3
# HELP queue_depth admitted unfinished work
# TYPE queue_depth gauge
queue_depth 2.5
# HELP requests_total requests by outcome
# TYPE requests_total counter
requests_total{outcome="err"} 1
requests_total{outcome="ok"} 3
# HELP zz_last_total sorts last
# TYPE zz_last_total counter
zz_last_total 7
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestLabeledHistogramExposition covers the le-label merge with existing
// labels — the layout the daemon's per-stage histograms use.
func TestLabeledHistogramExposition(t *testing.T) {
	r := NewRegistry()
	r.Histogram("stage_seconds", "", []float64{1}, L("stage", "decode")).Observe(0.5)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE stage_seconds histogram
stage_seconds_bucket{stage="decode",le="1"} 1
stage_seconds_bucket{stage="decode",le="+Inf"} 1
stage_seconds_sum{stage="decode"} 0.5
stage_seconds_count{stage="decode"} 1
`
	if b.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestGetOrCreate: the same (name, labels) resolves to the same instrument;
// label order does not matter; distinct labels are distinct series.
func TestGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("c_total", "", L("x", "1"), L("y", "2"))
	b := r.Counter("c_total", "", L("y", "2"), L("x", "1"))
	if a != b {
		t.Error("same labels in different order resolved to different counters")
	}
	if c := r.Counter("c_total", "", L("x", "2"), L("y", "2")); c == a {
		t.Error("distinct labels resolved to the same counter")
	}
	h1 := r.Histogram("h_seconds", "", LatencyBuckets)
	h2 := r.Histogram("h_seconds", "", LatencyBuckets)
	if h1 != h2 {
		t.Error("histogram get-or-create returned distinct instruments")
	}
}

func wantPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestMisusePanics: kind mismatches, bucket-layout mismatches, invalid
// names, and duplicate func registration are programming errors.
func TestMisusePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "")
	wantPanic(t, "kind mismatch", func() { r.GaugeFunc("c_total", "", func() float64 { return 0 }) })
	r.Histogram("h_seconds", "", []float64{1, 2})
	wantPanic(t, "bucket mismatch", func() { r.Histogram("h_seconds", "", []float64{1, 3}) })
	wantPanic(t, "empty buckets", func() { r.Histogram("h2_seconds", "", nil) })
	wantPanic(t, "unsorted buckets", func() { r.Histogram("h3_seconds", "", []float64{2, 1}) })
	wantPanic(t, "invalid name", func() { r.Counter("bad-name", "") })
	wantPanic(t, "digit-leading name", func() { r.Counter("9lives", "") })
	wantPanic(t, "invalid label name", func() { r.Counter("ok_total", "", L("bad-label", "v")) })
	r.GaugeFunc("gf", "", func() float64 { return 0 })
	wantPanic(t, "duplicate func", func() { r.GaugeFunc("gf", "", func() float64 { return 0 }) })
}

// TestLabelEscaping: quotes, backslashes, and newlines in label values (and
// HELP text) survive the exposition escapes.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "line1\nline2 \\ end", L("k", `a"b\c`+"\n")).Inc()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP c_total line1\\nline2 \\\\ end\n" +
		"# TYPE c_total counter\n" +
		`c_total{k="a\"b\\c\n"} 1` + "\n"
	if b.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%q\n--- want ---\n%q", b.String(), want)
	}
}

// expositionLine matches one sample or comment line of the text format — the
// grammar check reused by the serve scrape tests.
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?[0-9.e+-]+|\+Inf|-Inf|NaN))$`)

// CheckExposition fails t unless every line of text parses as exposition
// format. Shared with internal/serve's scrape-during-load test via copy —
// kept here so the grammar lives next to the writer.
func CheckExposition(t *testing.T, text string) {
	t.Helper()
	if text == "" || !strings.HasSuffix(text, "\n") {
		t.Fatalf("exposition text empty or missing trailing newline: %q", text)
	}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Errorf("line does not parse as exposition format: %q", line)
		}
	}
}

// TestConcurrentUse hammers every instrument type while scraping; run under
// -race this is the registry's central safety proof.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var depth atomic.Int64
	r.GaugeFunc("depth", "", func() float64 { return float64(depth.Load()) })
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("ops_total", "", L("kind", "write"))
			h := r.Histogram("lat_seconds", "", LatencyBuckets)
			for j := 0; j < 1000; j++ {
				c.Inc()
				depth.Add(1)
				depth.Add(-1)
				h.Observe(float64(j) * 1e-4)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				var b strings.Builder
				if err := r.WriteText(&b); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()

	if got := r.Counter("ops_total", "", L("kind", "write")).Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("lat_seconds", "", LatencyBuckets).Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	CheckExposition(t, b.String())
	if !strings.Contains(b.String(), "\ndepth 0\n") {
		t.Errorf("gauge func not sampled at 0:\n%s", b.String())
	}
}

// TestHistogramBoundarySemantics: observations exactly on a bound count into
// that bound's bucket (le is inclusive).
func TestHistogramBoundarySemantics(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "", []float64{1, 2})
	h.Observe(1) // le="1"
	h.Observe(2) // le="2"
	var b strings.Builder
	r.WriteText(&b)
	for _, want := range []string{
		`h_seconds_bucket{le="1"} 1`,
		`h_seconds_bucket{le="2"} 2`,
		`h_seconds_bucket{le="+Inf"} 2`,
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("missing %q in:\n%s", want, b.String())
		}
	}
	if h.Mean() != 1.5 {
		t.Errorf("mean = %g, want 1.5", h.Mean())
	}
}
