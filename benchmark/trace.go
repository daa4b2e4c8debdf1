package main

import (
	"sort"
	"sync"
	"time"

	"streamline/internal/dram"
	"streamline/internal/mem"
	"streamline/internal/meta"
	"streamline/internal/prefetch"
	"streamline/internal/sim"
)

// This file is the traced run's recorder. Spans are recorded from the
// benchmark's side of each layer boundary — the program itself carries no
// span code — and stay in memory until the benchmark ends.
//
// A call that runs a few hundred thousand times per simulation (a
// prefetcher's Train, a metadata bridge access) is too short and too
// frequent to keep one span each: its decorator keeps one aggregate span per
// (simulation, callee) holding the call count, the summed duration, the
// first start and the last end. The clock reads around such a call cost
// about as much as the call, so the tracer calibrates the cost of a timed
// empty call once and subtracts it per call when reporting.

// span is one recorded interval. Calls is 1 for an ordinary span and the
// call count for an aggregate; Busy is the summed duration inside it (equal
// to End-Start for an ordinary span).
type span struct {
	Name   string
	ID     string // shared by every span of one sim, job or request
	Parent int    // index of the causing span, -1 for a root
	Start  int64  // ns since the tracer started
	End    int64
	Busy   int64
	Calls  int64
}

// tracer collects spans. A nil *tracer records nothing, so untraced runs
// pass nil and pay nothing.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	clockNs float64 // cost of one timed empty call
	// shares is the probe kernel's per-layer time shares, for the report.
	shares []string
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), clockNs: calibrateClock()}
}

// sibling returns an empty tracer with t's clock calibration, for spans that
// must be totalled apart from t's.
func (t *tracer) sibling() *tracer {
	return &tracer{t0: time.Now(), clockNs: t.clockNs}
}

// calibrateClock measures what the two clock reads around a timed call add
// to its measured duration.
func calibrateClock() float64 {
	const n = 200_000
	var h hotTimer
	rounds := make([]float64, 5)
	for r := range rounds {
		h = hotTimer{}
		for i := 0; i < n; i++ {
			t := time.Now()
			h.observe(t)
		}
		rounds[r] = float64(h.busy) / n
	}
	return medianOf(rounds)
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// begin opens a span and returns its index, or -1 on a nil tracer.
func (t *tracer) begin(name, id string, parent int) int {
	if t == nil {
		return -1
	}
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, Calls: 1})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(idx int) {
	if t == nil || idx < 0 {
		return
	}
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[idx]
	s.End = now
	s.Busy = now - s.Start
}

// add stores a finished span measured by the caller — an ordinary one with
// calls == 1, or an aggregate of calls calls that were busy for busy in all —
// and returns its index (-1 when nothing was stored).
func (t *tracer) add(name, id string, parent int, start, end time.Time, busy time.Duration, calls int64) int {
	if t == nil || calls == 0 {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent,
		Start: t.since(start), End: t.since(end), Busy: int64(busy), Calls: calls})
	return len(t.spans) - 1
}

// record stores an ordinary finished span.
func (t *tracer) record(name, id string, parent int, start time.Time, d time.Duration) {
	t.add(name, id, parent, start, start.Add(d), d, 1)
}

// aggregate stores a hot call site's aggregate span.
func (t *tracer) aggregate(name, id string, parent int, h *hotTimer) int {
	return t.add(name, id, parent, h.first, h.last, time.Duration(h.busy), h.calls)
}

// busy returns the clock-corrected time inside a span: its Busy minus the
// calibrated clock cost of its calls.
func (t *tracer) busy(s span) float64 {
	b := float64(s.Busy)
	if s.Calls > 1 {
		b -= float64(s.Calls) * t.clockNs
	}
	if b < 0 {
		b = 0
	}
	return b
}

// total sums clock-corrected busy time and calls over the spans named name.
func (t *tracer) total(name string) (busyNs float64, calls int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			busyNs += t.busy(s)
			calls += s.Calls
		}
	}
	return busyNs, calls
}

// perCall is total's busy time per call (0 with no calls).
func (t *tracer) perCall(name string) float64 {
	b, c := t.total(name)
	if c == 0 {
		return 0
	}
	return b / float64(c)
}

// names lists the distinct span names, sorted.
func (t *tracer) names() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := map[string]bool{}
	for _, s := range t.spans {
		seen[s.Name] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// hotTimer accumulates one hot call site. It is owned by a single
// simulation, which is single-threaded, so it needs no lock.
type hotTimer struct {
	calls       int64
	busy        int64
	first, last time.Time
	requests    int64 // prefetch requests appended (Train sites only)
}

// observe closes a timed call that started at start.
func (h *hotTimer) observe(start time.Time) {
	end := time.Now()
	if h.calls == 0 {
		h.first = start
	}
	h.calls++
	h.busy += int64(end.Sub(start))
	h.last = end
}

// timedPrefetcher times every Train of the engine it wraps.
type timedPrefetcher struct {
	inner prefetch.Prefetcher
	h     *hotTimer
}

func (p *timedPrefetcher) Name() string { return p.inner.Name() }

// Store forwards the wrapped engine's metadata store, which the simulator's
// audit and telemetry read (its storeProvider assertion). They treat a nil
// store exactly like an engine without the method, so the wrapper can carry
// the method always and return nil for an engine that has no store.
func (p *timedPrefetcher) Store() *meta.Store {
	if sp, ok := p.inner.(interface{ Store() *meta.Store }); ok {
		return sp.Store()
	}
	return nil
}

func (p *timedPrefetcher) Train(ev prefetch.Event, out []prefetch.Request) []prefetch.Request {
	before := len(out)
	start := time.Now()
	out = p.inner.Train(ev, out)
	p.h.observe(start)
	p.h.requests += int64(len(out) - before)
	return out
}

// wrapPrefetcher returns inner with its Train timed into h. The simulator
// type-asserts a temporal prefetcher for AccuracyConsumer, MetaReporter and
// LLCDataObserver and behaves differently when one is present, so the
// wrapper exposes exactly those of the three that inner has — no more, or
// the simulator would feed an engine callbacks it never asked for; no fewer,
// or Streamline's partitioner would starve. The fourth assertion, for the
// metadata store, is answered by timedPrefetcher.Store.
func wrapPrefetcher(inner prefetch.Prefetcher, h *hotTimer) prefetch.Prefetcher {
	base := &timedPrefetcher{inner: inner, h: h}
	ac, isAC := inner.(prefetch.AccuracyConsumer)
	mr, isMR := inner.(prefetch.MetaReporter)
	lo, isLO := inner.(prefetch.LLCDataObserver)
	type (
		AC = prefetch.AccuracyConsumer
		MR = prefetch.MetaReporter
		LO = prefetch.LLCDataObserver
	)
	switch {
	case isAC && isMR && isLO:
		return struct {
			*timedPrefetcher
			AC
			MR
			LO
		}{base, ac, mr, lo}
	case isAC && isMR:
		return struct {
			*timedPrefetcher
			AC
			MR
		}{base, ac, mr}
	case isAC && isLO:
		return struct {
			*timedPrefetcher
			AC
			LO
		}{base, ac, lo}
	case isMR && isLO:
		return struct {
			*timedPrefetcher
			MR
			LO
		}{base, mr, lo}
	case isAC:
		return struct {
			*timedPrefetcher
			AC
		}{base, ac}
	case isMR:
		return struct {
			*timedPrefetcher
			MR
		}{base, mr}
	case isLO:
		return struct {
			*timedPrefetcher
			LO
		}{base, lo}
	}
	return base
}

// timedBridge times a temporal prefetcher's metadata bridge calls.
type timedBridge struct {
	inner           meta.Bridge
	access, reserve *hotTimer
}

func (b *timedBridge) MetaAccess(now uint64, kind mem.Kind) uint64 {
	start := time.Now()
	lat := b.inner.MetaAccess(now, kind)
	b.access.observe(start)
	return lat
}

func (b *timedBridge) ReserveWays(set, ways int) {
	start := time.Now()
	b.inner.ReserveWays(set, ways)
	b.reserve.observe(start)
}

func (b *timedBridge) Geometry() (int, int) { return b.inner.Geometry() }

// simTimers holds one traced simulation's hot-call timers, one set per core.
type simTimers struct {
	l1, l2, temporal []*hotTimer
	access, reserve  []*hotTimer
	names            [3]string // engine option names by slot (l1, l2, temporal)
}

// instrument rewires cfg's prefetcher factories through the timing
// decorators and returns the timers they feed. l1, l2 and temporal are the
// Spec option names of the configured engines; they name the spans.
func instrument(cfg *sim.Config, l1, l2, temporal string) *simTimers {
	st := &simTimers{names: [3]string{l1, l2, temporal}}
	newTimer := func(list *[]*hotTimer) *hotTimer {
		h := &hotTimer{}
		*list = append(*list, h)
		return h
	}
	if f := cfg.L1DPrefetcher; f != nil {
		cfg.L1DPrefetcher = func() prefetch.Prefetcher {
			return wrapPrefetcher(f(), newTimer(&st.l1))
		}
	}
	if f := cfg.L2Prefetcher; f != nil {
		cfg.L2Prefetcher = func() prefetch.Prefetcher {
			return wrapPrefetcher(f(), newTimer(&st.l2))
		}
	}
	if f := cfg.Temporal; f != nil {
		cfg.Temporal = func(b meta.Bridge) prefetch.Prefetcher {
			tb := &timedBridge{inner: b, access: newTimer(&st.access), reserve: newTimer(&st.reserve)}
			return wrapPrefetcher(f(tb), newTimer(&st.temporal))
		}
	}
	if f := cfg.TemporalDRAM; f != nil {
		cfg.TemporalDRAM = func(d *dram.DRAM) prefetch.Prefetcher {
			return wrapPrefetcher(f(d), newTimer(&st.temporal))
		}
	}
	return st
}

// flush records the simulation's aggregate spans: each engine's Train under
// parent, and each core's bridge calls under that core's temporal Train,
// inside which they happen.
func (st *simTimers) flush(t *tracer, id string, parent int) {
	for _, h := range st.l1 {
		t.aggregate("train."+st.names[0], id, parent, h)
	}
	for _, h := range st.l2 {
		t.aggregate("train."+st.names[1], id, parent, h)
	}
	for core, h := range st.temporal {
		train := t.aggregate("train."+st.names[2], id, parent, h)
		if core < len(st.access) {
			t.aggregate("meta.bridge.access", id, train, st.access[core])
			t.aggregate("meta.bridge.reserve", id, train, st.reserve[core])
		}
	}
}

// requestsPerTrain returns the requests the slot's engine appended per Train
// call, over every core.
func (st *simTimers) requestsPerTrain(slot int) float64 {
	var reqs, calls int64
	for _, h := range [][]*hotTimer{st.l1, st.l2, st.temporal}[slot] {
		reqs += h.requests
		calls += h.calls
	}
	if calls == 0 {
		return 0
	}
	return float64(reqs) / float64(calls)
}
