package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamline/internal/exp"
	"streamline/internal/exp/store"
	"streamline/internal/metrics"
	"streamline/internal/serve"
)

// This file is the serve-mixed workload: an in-process streamd (the real
// handler behind an httptest listener, a durable store on disk) driven over
// HTTP by a closed loop of nproc keep-alive clients — callers of streamd
// wait for their reply before sending the next request.

// request is one generated /simulate body and what the benchmark knows
// about it.
type request struct {
	spec serve.Spec
	body []byte
	// records is how many trace records the request's simulation retires,
	// known once a reply has been seen (see prime).
	records float64
}

// serveWorkload is the generated traffic: the known keys, the fresh keys the
// mixed phase adds, and the phase sizes.
type serveWorkload struct {
	known []request
	fresh []request
	hits  int // hit-phase requests
	store int // store-phase requests
	mixed int // mixed-phase requests; one in ten is fresh
	// warmup and measure are every request's instruction budgets.
	warmup, measure uint64
	procs           int
	seed            int64
	cal             *calibrator
}

// Cache sizes: the hit phase's LRU holds every known key, the mixed phase's
// does not, so its known keys are served from both memory and the store.
const (
	lruAll   = 256
	lruTight = 64
)

// storeLRU sizes the store phase's LRU to half the known keys, less a margin
// for the requests in flight.
func storeLRU(known int) int { return max(known/2-4, 1) }

// newRequest renders sp as a request body, checking first that streamd
// will accept it.
func newRequest(sp serve.Spec) (request, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return request{}, err
	}
	_, err = serve.DecodeRequestBytes(body)
	return request{spec: sp, body: body}, err
}

// docRecords estimates the trace records behind a reply: its measured window
// retired one record per L1D demand access, and the run is that window
// scaled by (warmup+measure)/measure.
func (w *serveWorkload) docRecords(doc serve.Result) float64 {
	var measured uint64
	for _, cr := range doc.CoreResults {
		measured += cr.L1D.DemandAccesses
	}
	return float64(measured) * float64(w.warmup+w.measure) / float64(w.measure)
}

// newServe generates the traffic from the seed: three workloads with and
// without Streamline over a range of trace seeds.
func newServe(e *env) (*serveWorkload, error) {
	w := &serveWorkload{hits: 20000, store: 6000, mixed: 1000, warmup: 20_000, measure: 60_000,
		procs: e.procs, seed: e.seed, cal: e.cal}
	seeds := 20
	if e.quick {
		seeds, w.hits, w.store, w.mixed = 3, 1200, 200, 100
	}
	if e.quick {
		w.warmup, w.measure = 5_000, 15_000
	}
	gen := func(count int, seedBase int64) ([]request, error) {
		var out []request
		for _, name := range []string{"sphinx06", "mcf06", "libquantum06"} {
			for s := 0; s < count; s++ {
				for _, temporal := range []string{"none", "streamline"} {
					r, err := newRequest(serve.Spec{Workload: name, Temporal: temporal,
						Warmup: w.warmup, Measure: w.measure, Seed: seedBase + int64(s)})
					if err != nil {
						return nil, err
					}
					out = append(out, r)
				}
			}
		}
		return out, nil
	}
	var err error
	if w.known, err = gen(seeds, traceSeed(e.seed, 0)); err != nil {
		return nil, err
	}
	// Fresh keys use trace seeds no known key has.
	freshSeeds := (w.mixed/10 + 5) / 6
	if w.fresh, err = gen(freshSeeds, traceSeed(e.seed, 0)+int64(seeds)); err != nil {
		return nil, err
	}
	return w, nil
}

// probeJob is the simulation the layer probes replay: the first Streamline
// request of the known keys, as streamd simulates it.
func (w *serveWorkload) probeJob() simJob {
	for _, k := range w.known {
		if k.spec.Temporal == "streamline" {
			return simJob{label: "serve/" + k.spec.Temporal + "/" + k.spec.Workload, spec: mustSpec(k.spec)}
		}
	}
	panic("benchmark: the serving traffic has no streamline key")
}

// reply is one observed response.
type reply struct {
	status  int
	tier    string
	body    []byte
	latency time.Duration
	start   time.Time
	err     error
}

// drive sends n requests through a closed loop of w.procs clients: each
// client takes the next unsent request when its previous reply has arrived.
func (w *serveWorkload) drive(hc *http.Client, url string, n int, body func(i int) []byte) ([]reply, time.Duration) {
	out := make([]reply, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < w.procs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = post(hc, url, body(i))
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

func post(hc *http.Client, url string, body []byte) reply {
	r := reply{start: time.Now()}
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.latency = time.Since(r.start)
	r.status = resp.StatusCode
	r.tier = resp.Header.Get("X-Streamd-Cache")
	return r
}

// client returns an HTTP client that keeps one connection alive per closed-
// loop client.
func (w *serveWorkload) client() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.procs}}
}

// daemon is one in-process streamd over an open store.
type daemon struct {
	srv *serve.Server
	ts  *httptest.Server
	st  *store.Store
}

func (w *serveWorkload) start(dir string, create bool, lru int) (*daemon, error) {
	open := store.Open
	if create {
		open = store.Create
	}
	st, err := open(dir, serve.ServiceManifest())
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Workers: w.procs, Store: st, CacheEntries: lru,
		Metrics: metrics.NewRegistry()})
	return &daemon{srv: srv, ts: httptest.NewServer(srv.Handler()), st: st}, nil
}

// stop drains the daemon the way cmd/streamd does on SIGTERM.
func (d *daemon) stop() error {
	err := d.srv.Drain(context.Background())
	d.ts.Close()
	if cerr := d.st.Close(); err == nil {
		err = cerr
	}
	return err
}

func (d *daemon) url() string { return d.ts.URL + "/simulate" }

// stageTotals accumulates streamd's stage histograms and counters over the
// daemons of one repetition.
type stageTotals struct {
	stages   map[string]histSeries
	counters serve.Counters
}

var stageNames = []string{"decode", "lookup", "queue_wait", "simulate", "marshal", "persist"}

func (s *stageTotals) add(d *daemon) {
	var b strings.Builder
	d.srv.Metrics().WriteText(&b)
	if s.stages == nil {
		s.stages = map[string]histSeries{}
	}
	for _, st := range stageNames {
		h := parseHistogram(b.String(), "streamd_request_stage_seconds", `stage="`+st+`"`)
		t := s.stages[st]
		t.Sum += h.Sum
		t.Count += h.Count
		s.stages[st] = t
	}
	c := d.srv.Counters()
	s.counters.MemoryHits += c.MemoryHits
	s.counters.StoreHits += c.StoreHits
	s.counters.Collapsed += c.Collapsed
	s.counters.Computed += c.Computed
	s.counters.Rejected += c.Rejected
}

// repResult is one repetition of the four phases.
type repResult struct {
	cold, hit, stored []reply // per request, in send order
	coldMem           memDelta
	mixedRPS          float64
	ops               ops
	totals            stageTotals
	scrapeUs          []float64
	root              int // the repetition's span
}

// tierOnly returns the replies served from tier.
func tierOnly(rs []reply, tier string) []reply {
	var out []reply
	for _, r := range rs {
		if r.tier == tier {
			out = append(out, r)
		}
	}
	return out
}

func micros(rs []reply) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = float64(r.latency) / 1e3
	}
	return out
}

// checkReplies counts each reply as an operation: it fails unless it is a
// 200 from an expected tier whose body equals want(i) (nil: anything).
func (o *ops) checkReplies(phase string, rs []reply, tiers string, want func(i int) []byte) {
	for i, r := range rs {
		ok := r.err == nil && r.status == http.StatusOK && strings.Contains(tiers, r.tier) && r.tier != ""
		if ok && want != nil {
			if b := want(i); b != nil {
				ok = bytes.Equal(b, r.body)
			}
		}
		o.add(ok, "%s request %d: status %d tier %q err %v (want a 200 from %s with the cold body)",
			phase, i, r.status, r.tier, r.err, tiers)
	}
}

// traceReplies records one span per client request.
func traceReplies(t *tracer, phase string, parent int, rs []reply) {
	for i, r := range rs {
		t.record("serve.request."+phase, fmt.Sprintf("%s-%d", phase, i), parent, r.start, r.latency)
	}
}

// rep runs the four phases against a fresh store in dir. firstBodies are the
// cold bodies an earlier pass over the known keys got, which this one must
// reproduce (nil when there was none).
func (w *serveWorkload) rep(dir string, firstBodies [][]byte, t *tracer) (repResult, error) {
	var r repResult
	root := t.begin("serve.rep", "serve", -1)
	defer t.end(root)
	r.root = root
	hc := w.client()
	defer hc.CloseIdleConnections()
	known := func(i int) []byte { return w.known[i].body }

	// cold: every known key once, each simulated.
	d, err := w.start(dir, true, lruAll)
	if err != nil {
		return r, err
	}
	runtime.GC()
	m0 := readMem()
	r.cold, _ = w.drive(hc, d.url(), len(w.known), known)
	r.coldMem = readMem().since(m0)
	w.cal.sample()
	r.ops.checkReplies("cold", r.cold, "none", func(i int) []byte {
		if firstBodies == nil {
			return nil
		}
		return firstBodies[i]
	})
	coldBody := func(i int) []byte { return r.cold[i].body }

	// hit: requests over the known keys, all inside the LRU.
	rng := rand.New(rand.NewSource(w.seed))
	order := make([]int, w.hits)
	for i := range order {
		order[i] = rng.Intn(len(w.known))
	}
	r.hit, _ = w.drive(hc, d.url(), w.hits, func(i int) []byte { return w.known[order[i]].body })
	r.ops.checkReplies("hit", r.hit, "memory", func(i int) []byte { return coldBody(order[i]) })
	w.cal.sample()
	if t != nil {
		for i := 0; i < 20; i++ {
			t0 := time.Now()
			resp, err := hc.Get(d.ts.URL + "/metricz")
			if err != nil {
				return r, err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			r.scrapeUs = append(r.scrapeUs, float64(time.Since(t0))/1e3)
		}
	}
	r.totals.add(d)
	if err := d.stop(); err != nil {
		return r, err
	}

	// store: a restarted daemon answers from the store. It walks the known
	// keys round and round through an LRU that holds fewer of them than a
	// lap, so a key has always been evicted by the time it comes up again
	// and every request is a store-tier hit.
	if d, err = w.start(dir, false, storeLRU(len(w.known))); err != nil {
		return r, err
	}
	lap := func(i int) int { return i % len(w.known) }
	r.stored, _ = w.drive(hc, d.url(), w.store, func(i int) []byte { return w.known[lap(i)].body })
	// A client that stalls for a whole lap finds its key back in memory, so
	// a memory-tier reply is correct here too; only store-tier replies are
	// timed, and they must be nearly all of them.
	r.ops.checkReplies("store", r.stored, "store memory", func(i int) []byte { return coldBody(lap(i)) })
	r.stored = tierOnly(r.stored, "store")
	r.ops.add(len(r.stored) >= w.store*9/10, "store phase: only %d of %d replies came from the store tier", len(r.stored), w.store)
	w.cal.sample()
	r.totals.add(d)
	if err := d.stop(); err != nil {
		return r, err
	}

	// mixed: nine known keys in ten, one fresh, through an LRU smaller
	// than the known set — reads beside writes, memory beside store.
	if d, err = w.start(dir, false, lruTight); err != nil {
		return r, err
	}
	freshAt := 0
	pick := make([]int, w.mixed) // >= 0: known index; < 0: -(fresh index)-1
	for i := range pick {
		if i%10 == 9 && freshAt < len(w.fresh) {
			pick[i] = -freshAt - 1
			freshAt++
		} else {
			pick[i] = rng.Intn(len(w.known))
		}
	}
	mixed, wall := w.drive(hc, d.url(), w.mixed, func(i int) []byte {
		if pick[i] < 0 {
			return w.fresh[-pick[i]-1].body
		}
		return w.known[pick[i]].body
	})
	r.mixedRPS = float64(w.mixed) / wall.Seconds()
	w.cal.sample()
	r.ops.checkReplies("mixed", mixed, "none flight memory store", func(i int) []byte {
		if pick[i] < 0 {
			return nil
		}
		return coldBody(pick[i])
	})
	r.totals.add(d)
	if err := d.stop(); err != nil {
		return r, err
	}
	traceReplies(t, "cold", root, r.cold)
	traceReplies(t, "hit", root, r.hit)
	traceReplies(t, "store", root, r.stored)
	traceReplies(t, "mixed", root, mixed)
	return r, nil
}

// coldNsPerRecord is each cold request's latency over the records its
// simulation retired.
func (w *serveWorkload) coldNsPerRecord(cold []reply) []float64 {
	out := make([]float64, len(cold))
	for i, r := range cold {
		out[i] = float64(r.latency) / w.known[i].records
	}
	return out
}

// speedups pairs each Streamline reply with the temporal=none reply of the
// same workload and trace seed and returns the IPC ratios, with the decoded
// documents for the per-layer counts.
func (w *serveWorkload) speedups(cold []reply) ([]float64, []serve.Result, error) {
	docs := make([]serve.Result, len(cold))
	base := map[string]float64{}
	for i, r := range cold {
		if err := json.Unmarshal(r.body, &docs[i]); err != nil {
			return nil, nil, fmt.Errorf("cold reply %d: %w", i, err)
		}
		if docs[i].Temporal == "none" {
			base[fmt.Sprintf("%s/%d", docs[i].Workload, docs[i].Seed)] = docs[i].CoreResults[0].IPC
		}
	}
	var out []float64
	for _, doc := range docs {
		if doc.Temporal == "streamline" {
			out = append(out, ratio(doc.CoreResults[0].IPC, base[fmt.Sprintf("%s/%d", doc.Workload, doc.Seed)]))
		}
	}
	return out, docs, nil
}

func bodies(rs []reply) [][]byte {
	out := make([][]byte, len(rs))
	for i, r := range rs {
		out[i] = r.body
	}
	return out
}

func (w *serveWorkload) totalRecords() (n float64) {
	for _, k := range w.known {
		n += k.records
	}
	return n
}

// primedServe is the serving workload's set-up product: the generated
// traffic, and from one priming pass over the known keys on a scratch daemon
// the bodies every later reply must equal, each key's record count and the
// simulated speedups.
type primedServe struct {
	w      *serveWorkload
	bodies [][]byte
	gains  []float64
}

func primeServe(e *env) (primedServe, error) {
	w, err := newServe(e)
	if err != nil {
		return primedServe{}, err
	}
	dir := e.tempDir("serve-prime")
	defer os.RemoveAll(dir)
	d, err := w.start(dir, true, lruAll)
	if err != nil {
		return primedServe{}, err
	}
	hc := w.client()
	defer hc.CloseIdleConnections()
	cold, _ := w.drive(hc, d.url(), len(w.known), func(i int) []byte { return w.known[i].body })
	if err := d.stop(); err != nil {
		return primedServe{}, err
	}
	var o ops
	o.checkReplies("prime", cold, "none", nil)
	if o.failed > 0 {
		return primedServe{}, fmt.Errorf("priming pass: %s", o.notes[0])
	}
	gains, docs, err := w.speedups(cold)
	if err != nil {
		return primedServe{}, err
	}
	for i, doc := range docs {
		w.known[i].records = w.docRecords(doc)
	}
	w.cal.sample()
	return primedServe{w: w, bodies: bodies(cold), gains: gains}, nil
}

func serveUntraced(e *env) (report, error) {
	var rep report
	pr, setupS, err := setupMedian(3, func() (primedServe, error) { return primeServe(e) })
	if err != nil {
		return rep, err
	}
	w, first, gains := pr.w, pr.bodies, pr.gains
	records := w.totalRecords()

	var nsPerRecord, hitUs, storeUs, rps, mallocs, allocBytes []float64
	reps, err := repeatFor(e.budgetDuration(), 2, func(i int) error {
		dir := e.tempDir(fmt.Sprintf("serve-%d", i))
		defer os.RemoveAll(dir)
		r, err := w.rep(dir, first, nil)
		if err != nil {
			return err
		}
		rep.ops.merge(r.ops)
		nsPerRecord = append(nsPerRecord, w.coldNsPerRecord(r.cold)...)
		hitUs = append(hitUs, micros(r.hit)...)
		storeUs = append(storeUs, micros(r.stored)...)
		rps = append(rps, r.mixedRPS)
		mallocs = append(mallocs, float64(r.coldMem.mallocs))
		allocBytes = append(allocBytes, float64(r.coldMem.bytes))
		return nil
	})
	if err != nil {
		return rep, err
	}
	cold, hit, stored := Summarize(nsPerRecord), Summarize(hitUs), Summarize(storeUs)
	rep.vals = values{
		"setup_s":                setupS,
		"host_ns_per_record":     cold.Median,
		"allocs_per_record":      medianOf(mallocs) / records,
		"alloc_bytes_per_record": medianOf(allocBytes) / records,
		"sim_speedup_geomean":    exp.Geomean(gains),
		"repeat_us_per_result":   hit.Median,
		"restart_us_per_result":  stored.Median,
		"results_per_s":          medianOf(rps),
	}
	rep.digest = hashAll(first)
	rep.info = []string{
		fmt.Sprintf("repetitions=%d clients=%d known_keys=%d fresh_keys=%d hits=%d store_hits=%d mixed=%d",
			reps, w.procs, len(w.known), len(w.fresh), w.hits, w.store, w.mixed),
		fmt.Sprintf("samples: cold=%d (p%g %.1f ns/record), memory hits=%d (p%g %.1fus), store hits=%d (p%g %.1fus), mixed phases=%d, set-ups=3",
			cold.N, cold.TailPct, cold.Tail, hit.N, hit.TailPct, hit.Tail, stored.N, stored.TailPct, stored.Tail, len(rps)),
		fmt.Sprintf("mixed-phase req/s by repetition (uncalibrated): %.0f", rps),
	}
	return rep, nil
}

// traced runs one repetition with a span per client request and reports the
// serving layers from streamd's own stage histograms and counters. It
// returns the simulated counts of the cold replies, which are the workload's
// own per-layer counts when serving is the workload being traced.
func (w *serveWorkload) traced(e *env, t *tracer, out values) (report, simCounts, error) {
	var rep report
	var counts simCounts
	dir := e.tempDir("serve-traced")
	defer os.RemoveAll(dir)
	r, err := w.rep(dir, nil, t)
	if err != nil {
		return rep, counts, err
	}
	rep.ops = r.ops
	st := r.totals.stages
	out["serve.decode_us"] = st["decode"].Mean() * 1e6
	out["serve.lookup_us"] = st["lookup"].Mean() * 1e6
	out["serve.queue_wait_us"] = st["queue_wait"].Mean() * 1e6
	out["serve.simulate_ms"] = st["simulate"].Mean() * 1e3
	out["serve.marshal_us"] = st["marshal"].Mean() * 1e6
	out["serve.persist_us"] = st["persist"].Mean() * 1e6
	coldMs := make([]float64, len(r.cold))
	for i, c := range r.cold {
		coldMs[i] = c.latency.Seconds() * 1e3
	}
	cold := Summarize(coldMs)
	out["serve.cold_p50_ms"] = cold.Median
	var coldPct, hitPct float64
	out["serve.cold_p90_ms"], coldPct = supportedPercentile(coldMs, 90)
	out["serve.hit_p99_us"], hitPct = supportedPercentile(micros(r.hit), 99)
	c := r.totals.counters
	out["serve.memory_hits"] = float64(c.MemoryHits)
	out["serve.store_hits"] = float64(c.StoreHits)
	out["serve.collapsed"] = float64(c.Collapsed)
	out["serve.computed"] = float64(c.Computed)
	out["serve.rejected"] = float64(c.Rejected)
	out["metrics.scrape_us"] = medianOf(r.scrapeUs)
	// streamd keeps its stages as histograms, not per request, so they hang
	// off the repetition as aggregate spans.
	for _, name := range stageNames {
		h := st[name]
		t.add("serve.stage."+name, "serve", r.root, r.cold[0].start, r.cold[0].start,
			time.Duration(h.Sum*float64(time.Second)), int64(h.Count))
	}
	_, docs, err := w.speedups(r.cold)
	if err != nil {
		return rep, counts, err
	}
	for _, doc := range docs {
		counts.addDoc(doc, w.docRecords(doc))
	}
	rep.digest = hashAll(bodies(r.cold))
	rep.info = []string{fmt.Sprintf("traced serve repetition: cold n=%d p50 %.2fms (tail read at p%g), hits n=%d (tail read at p%g), store hits n=%d, mixed %.0f req/s",
		cold.N, cold.Median, coldPct, len(r.hit), hitPct, len(r.stored), r.mixedRPS)}
	return rep, counts, nil
}
