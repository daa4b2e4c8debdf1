// Package metrics is the repo's dependency-free instrumentation core: named
// counters, sampled gauges, and fixed-bucket histograms behind a race-safe
// registry with deterministic Prometheus-style text exposition. One registry
// serves both runtime surfaces — the serving daemon scrapes it at GET
// /metricz, the experiment harness dumps it at exit — so the daemon and the
// batch path share one metrics vocabulary.
//
// Design constraints, mirroring internal/telemetry's:
//
//  1. The hot path is lock-free. Instrument handles are resolved once at
//     wiring time; Inc/Observe are a few atomic operations with no
//     registry involvement, so instrumented request handling and job
//     execution never contend on a registry lock.
//  2. Exposition is deterministic in format. Families are sorted by name,
//     series by label signature, and floats serialize in strconv's shortest
//     round-trip form — two registries holding the same values render
//     byte-identical text.
//  3. No dependencies. Everything is stdlib, so any package (CLIs, the
//     runner, the server) can hold instruments without pulling in HTTP or
//     third-party client libraries.
//
// Registration is get-or-create: asking for the same (name, labels) again
// returns the same instrument, so independently wired subsystems (the fault
// policy, the sweep runner, the daemon) can share one registry without
// coordinating registration order. Asking for an existing name with a
// different kind or bucket layout panics — that is a programming error, not
// a runtime condition.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name/value pair attached to an instrument. Labels
// distinguish series within a family (the histogram family
// "streamd_request_stage_seconds" has one series per stage).
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// LatencyBuckets is the default latency histogram layout: 100µs to 60s in
// roughly 2.5x steps, chosen so both a sub-millisecond cache hit and a
// multi-second paper-scale simulation land in an interior bucket.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// kind discriminates instrument families.
type kind uint8

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Counter is a monotonically non-decreasing count. The zero value is usable,
// but instruments are normally obtained from a Registry so they appear in
// the exposition.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram counts observations into fixed buckets. Bucket semantics follow
// Prometheus: an observation v lands in the first bucket whose upper bound
// is >= v (bounds are inclusive), with an implicit +Inf bucket at the end.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Mean returns Sum/Count, or 0 with no observations — the figure behind the
// daemon's Retry-After estimate.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// series is one (labels, instrument) pair within a family.
type series struct {
	labels    string // canonical rendering, "" or `{a="b",c="d"}`
	counter   *Counter
	hist      *Histogram
	counterFn func() uint64
	gaugeFn   func() float64
}

// family groups every series sharing one metric name.
type family struct {
	name    string
	help    string
	kind    kind
	bounds  []float64 // histogramKind only
	series  map[string]*series
	ordered []string // insertion-independent: sorted at exposition
}

// Registry is a set of instrument families. The zero value is not usable;
// create with NewRegistry. Registration takes a lock; using the returned
// instruments does not.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter named name with the given labels, creating it
// on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, counterKind, nil, labels)
	if s.counter == nil {
		panic(fmt.Sprintf("metrics: %s%s is a counter func, not a settable counter", name, s.labels))
	}
	return s.counter
}

// Histogram returns the histogram named name with the given labels, creating
// it with the given bucket upper bounds (which must be sorted ascending and
// non-empty) on first use. Re-requests must pass an identical layout.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %s bounds not strictly ascending", name))
		}
	}
	s := r.lookup(name, help, histogramKind, bounds, labels)
	return s.hist
}

// CounterFunc registers a counter whose value is read from fn at exposition
// time — for monotonic counts a subsystem already maintains (the server's
// request accounting), so the exposition has a single source of truth.
// Registering the same (name, labels) twice panics: a sampled counter has
// exactly one owner.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.register(name, help, counterKind, labels, &series{counterFn: fn})
}

// GaugeFunc registers a gauge whose value is read from fn at exposition time
// (queue depth, cache occupancy). Registering the same (name, labels) twice
// panics.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, gaugeKind, labels, &series{gaugeFn: fn})
}

// lookup is the get-or-create path behind Counter/Histogram.
func (r *Registry) lookup(name, help string, k kind, bounds []float64, labels []Label) *series {
	key := labelSignature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, k, bounds)
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labels: key}
	switch k {
	case counterKind:
		s.counter = &Counter{}
	case histogramKind:
		s.hist = &Histogram{
			bounds:  f.bounds,
			buckets: make([]atomic.Uint64, len(f.bounds)+1),
		}
	}
	f.series[key] = s
	return s
}

// register installs a pre-built (func-backed) series, refusing duplicates.
func (r *Registry) register(name, help string, k kind, labels []Label, s *series) {
	key := labelSignature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, k, nil)
	if _, ok := f.series[key]; ok {
		panic(fmt.Sprintf("metrics: duplicate registration of %s%s", name, key))
	}
	s.labels = key
	f.series[key] = s
}

// family resolves (or creates) the family for name, enforcing kind and
// bucket-layout consistency.
func (r *Registry) family(name, help string, k kind, bounds []float64) *family {
	checkName(name)
	if f, ok := r.families[name]; ok {
		if f.kind != k {
			panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, k))
		}
		if k == histogramKind && !equalBounds(f.bounds, bounds) {
			panic(fmt.Sprintf("metrics: histogram %s requested with a different bucket layout", name))
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   k,
		bounds: append([]float64(nil), bounds...),
		series: make(map[string]*series),
	}
	r.families[name] = f
	return f
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkName enforces the Prometheus metric/label name grammar.
func checkName(name string) {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// labelSignature renders labels canonically: sorted by name, values escaped,
// "" for none. The signature doubles as the exposition text, so series
// ordering and formatting are deterministic by construction.
func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if !validName(l.Name) {
			panic(fmt.Sprintf("metrics: invalid label name %q", l.Name))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeValue applies the exposition-format label value escapes.
func escapeValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp applies the exposition-format HELP text escapes.
func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// formatFloat renders a float in the shortest form that round-trips, the
// same form encoding/json uses — deterministic for a given value.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders the registry in the Prometheus text exposition format
// (version 0.0.4). Families appear sorted by name, series sorted by label
// signature, each preceded by its # HELP and # TYPE lines. Values are read
// at render time; concurrent updates may land between lines, but every
// individual value is a consistent atomic read.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.writeText(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) writeText(b *strings.Builder) {
	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := f.series[k]
		switch f.kind {
		case counterKind:
			v := uint64(0)
			if s.counterFn != nil {
				v = s.counterFn()
			} else {
				v = s.counter.Value()
			}
			fmt.Fprintf(b, "%s%s %s\n", f.name, s.labels, strconv.FormatUint(v, 10))
		case gaugeKind:
			fmt.Fprintf(b, "%s%s %s\n", f.name, s.labels, formatFloat(s.gaugeFn()))
		case histogramKind:
			s.hist.writeText(b, f.name, s.labels)
		}
	}
}

// writeText renders one histogram series: cumulative _bucket lines with le
// labels, then _sum and _count.
func (h *Histogram) writeText(b *strings.Builder, name, labels string) {
	// The le label joins any existing labels; it is always last, matching
	// the canonical rendering convention of labelSignature plus suffix.
	open := "{"
	if labels != "" {
		open = labels[:len(labels)-1] + ","
	}
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(b, "%s_bucket%sle=\"%s\"} %d\n", name, open, formatFloat(bound), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%sle=\"+Inf\"} %d\n", name, open, cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, h.Count())
}
