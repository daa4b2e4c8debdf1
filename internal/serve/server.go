package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamline/internal/exp/runner"
	"streamline/internal/exp/store"
	"streamline/internal/metrics"
	"streamline/internal/sim"
)

// Config sizes one Server. Zero values select the documented defaults.
type Config struct {
	// Workers bounds concurrently executing simulations; <=0 means
	// GOMAXPROCS.
	Workers int
	// QueueDepth bounds admitted-but-unfinished distinct computations
	// (running + waiting for a worker). A request that would exceed it is
	// refused with 429 and Retry-After; <=0 means max(4, 4*Workers).
	// Collapsed duplicates never consume queue slots.
	QueueDepth int
	// JobTimeout bounds one simulation's wall clock via the runner fault
	// policy; an exceeded request answers 504. Zero means unbounded.
	JobTimeout time.Duration
	// MaxBodyBytes caps the request body; over-long bodies answer 413.
	// <=0 means 1MB.
	MaxBodyBytes int64
	// CacheEntries sizes the in-memory LRU over response bodies; <=0
	// means 256.
	CacheEntries int
	// Store, when non-nil, is the durable content-addressed result tier:
	// every computed response is persisted (fsynced, checksummed) and
	// replayed byte-identically across restarts.
	Store *store.Store
	// AccessLog, when non-nil, receives one AccessRecord JSONL line per
	// /simulate request (see accesslog.go), each in a single Write; the
	// server serializes the writes. Write errors are not reported back:
	// give it a writer that remembers them, such as a bufio.Writer.
	AccessLog io.Writer
	// SlowRequest, when positive, promotes the full stage breakdown of any
	// request at least this slow into its access-log record.
	SlowRequest time.Duration
	// Metrics, when non-nil, is the registry /metricz renders and the
	// server's instruments live in; nil means the server creates its own.
	// Pass a shared registry to combine the daemon's serving metrics with
	// other subsystems' on one exposition.
	Metrics *metrics.Registry
}

// Counters is a snapshot of the server's request accounting. Every request
// lands in exactly one of: Invalid, MemoryHits, StoreHits, Collapsed,
// Rejected, DrainRefused, or the computation outcomes
// Computed/Failed/Panicked/Canceled.
type Counters struct {
	Requests   uint64 `json:"requests"`
	Invalid    uint64 `json:"invalid"`
	MemoryHits uint64 `json:"memoryHits"`
	StoreHits  uint64 `json:"storeHits"`
	Collapsed  uint64 `json:"collapsed"`
	Computed   uint64 `json:"computed"`
	Failed     uint64 `json:"failed"`
	// Panicked counts computations that panicked: a server bug, not a bad
	// request, so it is kept apart from Failed. Each answered 500.
	Panicked uint64 `json:"panicked"`
	// Canceled counts computations stopped before completion — every waiter
	// disconnected, or the drain deadline passed. Canceled results are never
	// cached.
	Canceled uint64 `json:"canceled"`
	Rejected uint64 `json:"rejected"`
	// DrainRefused counts requests refused with 503 because the server was
	// draining when they asked for a new computation.
	DrainRefused uint64 `json:"drainRefused"`
}

// Status is the /statusz document.
type Status struct {
	Counters
	Workers    int  `json:"workers"`
	QueueDepth int  `json:"queueDepth"`
	Queued     int  `json:"queued"`
	InFlight   int  `json:"inFlight"`
	Draining   bool `json:"draining"`
	// HitRate is cache-served completions (memory + store + collapsed)
	// over all completed lookups.
	HitRate      float64 `json:"hitRate"`
	CacheEntries int     `json:"cacheEntries"`
	// StoreRecords is the durable tier's record count, or -1 without one.
	StoreRecords  int     `json:"storeRecords"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// MemoHits counts requests whose body resolved from the request memo,
	// MemoEntries the bodies it holds; neither is part of Counters.
	MemoHits    uint64 `json:"memoHits"`
	MemoEntries int    `json:"memoEntries"`
}

// Server executes validated simulation requests on a bounded worker pool
// with single-flight batching, an LRU response cache, an optional durable
// store tier, and queue-full backpressure. Create with New; expose with
// Handler; stop with Drain.
type Server struct {
	cfg   Config
	cache *resultCache
	memo  requestMemo
	sem   chan struct{} // worker slots

	mu       sync.Mutex
	flights  map[string]*flight
	queued   int
	draining bool

	wg       sync.WaitGroup
	inFlight atomic.Int64
	seq      atomic.Uint64
	start    time.Time
	// boot is a per-process nonce prefixed to request IDs so IDs stay
	// unique across daemon restarts sharing one access log.
	boot    string
	metrics *serverMetrics
	// jobMetrics exports cache-miss computations into the shared
	// runner_job_* instrument family on the same registry.
	jobMetrics *runner.Metrics

	requests, invalid, memHits, storeHits atomic.Uint64
	collapsed, computed, failed, rejected atomic.Uint64
	panicked, canceled, drainRefused      atomic.Uint64

	hookMu      sync.Mutex
	computeHook func(key string)

	logMu sync.Mutex // serializes AccessLog writes
}

// flight is one in-progress computation; concurrent identical requests wait
// on done and share its response. status, body, outcome, err, and stages are
// written by the computing goroutine before done closes, so waiters that
// observed the close may read them (the originating request promotes stages
// into its access record).
type flight struct {
	done    chan struct{}
	status  int
	body    []byte
	outcome string
	// err is the computation's error text, or on success the store's
	// persist error; empty when neither happened.
	err    string
	stages StageTimings

	// cancel stops the computation cooperatively: the engine halts at its
	// next epoch boundary and nothing is cached. The last disconnecting
	// waiter calls it, Drain calls it on deadline, and compute calls it on
	// exit to release the context.
	cancel context.CancelFunc
	// waiters counts requests awaiting done; guarded by Server.mu.
	waiters int
	// records is the computation's live progress (trace records retired),
	// published from the engine's epoch observer and summed into the
	// streamd_sim_progress gauge.
	records atomic.Uint64
}

// requestMemo maps exact request-body bytes to their resolution, so a
// repeated body skips the JSON decode, Normalize, ID and key. It holds only
// bodies that decoded — an invalid body is decoded, and answers the same
// error, every time — of at most memoMaxBody bytes (a canonical Spec body is
// under 300), and at most memoMaxEntries of them: a full memo is cleared.
// Spec holds only values, so entries are shared read-only.
type requestMemo struct {
	mu   sync.Mutex
	m    map[string]resolved
	hits atomic.Uint64
}

const memoMaxBody, memoMaxEntries = 4 << 10, 4096

// resolved is a decoded request with the ID and result key derived from it.
type resolved struct {
	spec    Spec
	id, key string
}

// resolve returns body's resolution, from the memo when body has been seen.
func (m *requestMemo) resolve(body []byte) (resolved, error) {
	memoable := len(body) <= memoMaxBody
	if memoable {
		m.mu.Lock()
		r, ok := m.m[string(body)]
		m.mu.Unlock()
		if ok {
			m.hits.Add(1)
			return r, nil
		}
	}
	sp, err := DecodeRequestBytes(body)
	if err != nil {
		return resolved{}, err
	}
	r := resolved{spec: sp, id: sp.ID()}
	r.key = keyOf(r.id)
	if memoable {
		m.mu.Lock()
		if len(m.m) >= memoMaxEntries {
			clear(m.m)
		}
		m.m[string(body)] = r
		m.mu.Unlock()
	}
	return r, nil
}

func (m *requestMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// New returns a server over cfg with defaults applied.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = max(4, 4*cfg.Workers)
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 256
	}
	s := &Server{
		cfg:     cfg,
		cache:   newResultCache(cfg.CacheEntries),
		memo:    requestMemo{m: make(map[string]resolved)},
		sem:     make(chan struct{}, cfg.Workers),
		flights: make(map[string]*flight),
		start:   time.Now(),
	}
	s.boot = fmt.Sprintf("%08x", uint32(s.start.UnixNano()))
	s.metrics = newServerMetrics(s, cfg.Metrics)
	s.jobMetrics = runner.NewMetrics(s.metrics.reg)
	return s
}

// Handler returns the daemon's HTTP surface: POST /simulate, GET /healthz,
// GET /statusz, GET /metricz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/simulate", s.handleSimulate)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/metricz", s.handleMetricz)
	return mux
}

// requestID builds the ID exposed as X-Streamd-Request and repeated in the
// request's access record: "%s-%06d" of the boot nonce and seq, in fmt's terms.
func (s *Server) requestID(seq uint64) string {
	var buf, digits [32]byte
	b := append(append(buf[:0], s.boot...), '-')
	d := strconv.AppendUint(digits[:0], seq, 10)
	for i := len(d); i < 6; i++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}

// SetComputeHook installs fn, invoked at the start of every cache-miss
// computation (inside the fault policy) with the request key — the test seam
// for saturating the queue and scripting timeouts deterministically.
func (s *Server) SetComputeHook(fn func(key string)) {
	s.hookMu.Lock()
	s.computeHook = fn
	s.hookMu.Unlock()
}

func (s *Server) getComputeHook() func(string) {
	s.hookMu.Lock()
	defer s.hookMu.Unlock()
	return s.computeHook
}

// Counters returns a snapshot of the request accounting.
func (s *Server) Counters() Counters {
	return Counters{
		Requests:     s.requests.Load(),
		Invalid:      s.invalid.Load(),
		MemoryHits:   s.memHits.Load(),
		StoreHits:    s.storeHits.Load(),
		Collapsed:    s.collapsed.Load(),
		Computed:     s.computed.Load(),
		Failed:       s.failed.Load(),
		Panicked:     s.panicked.Load(),
		Canceled:     s.canceled.Load(),
		Rejected:     s.rejected.Load(),
		DrainRefused: s.drainRefused.Load(),
	}
}

// Status returns the /statusz document.
func (s *Server) Status() Status {
	s.mu.Lock()
	queued, draining := s.queued, s.draining
	s.mu.Unlock()
	st := Status{
		Counters:      s.Counters(),
		Workers:       s.cfg.Workers,
		QueueDepth:    s.cfg.QueueDepth,
		Queued:        queued,
		InFlight:      int(s.inFlight.Load()),
		Draining:      draining,
		CacheEntries:  s.cache.len(),
		StoreRecords:  -1,
		UptimeSeconds: time.Since(s.start).Seconds(),
		MemoHits:      s.memo.hits.Load(),
		MemoEntries:   s.memo.len(),
	}
	if s.cfg.Store != nil {
		st.StoreRecords = s.cfg.Store.Len()
	}
	hits := st.MemoryHits + st.StoreHits + st.Collapsed
	if total := hits + st.Computed + st.Failed + st.Panicked + st.Canceled; total > 0 {
		st.HitRate = float64(hits) / float64(total)
	}
	return st
}

// Drain stops admitting new computations and waits for in-flight ones to
// finish (and persist). If ctx's deadline passes first, every in-flight
// computation is canceled cooperatively and Drain waits for the workers to
// unwind before returning ctx's error — a drained server leaves no
// simulating goroutine behind either way.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, f := range s.flights {
			f.cancel()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !allowGetHead(w, r) {
		return
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if r.Method == http.MethodHead {
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if !allowGetHead(w, r) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if r.Method == http.MethodHead {
		return
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Status())
}

// writeError answers a JSON error document, returning its body length.
func writeError(w http.ResponseWriter, status int, msg string) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	doc, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	doc = append(doc, '\n')
	n, _ := w.Write(doc)
	return n
}

// respond serves a response body with its cache-tier tag ("none" for a fresh
// computation, "flight" for a collapsed duplicate, "memory", "store").
func respond(w http.ResponseWriter, body []byte, tier string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Streamd-Cache", tier)
	w.Write(body)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "POST a simulation request to /simulate")
		return
	}
	s.requests.Add(1)
	span := &accessSpan{id: s.requestID(s.seq.Add(1)), t0: time.Now()}
	w.Header().Set("X-Streamd-Request", span.id)

	// The decode stage reads the body and resolves it, through the memo.
	tDecode := time.Now()
	var req resolved
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		err = fmt.Errorf("malformed request: %w", err)
	} else {
		req, err = s.memo.resolve(raw)
	}
	decode := time.Since(tDecode)
	span.stages.DecodeUs = us(decode)
	s.metrics.observeStage(stageDecode, decode)
	if err != nil {
		s.invalid.Add(1)
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		span.err = err.Error()
		n := writeError(w, status, span.err)
		s.finish(span, status, "invalid", "", n)
		return
	}
	span.spec = req.id
	key := req.key

	// Tiers 1 and 2: the in-memory LRU, then the durable store
	// (checksum-verified by Get). Both probes share the lookup span.
	tLookup := time.Now()
	body, hit := s.cache.get(key)
	var lookupTier string
	if hit {
		lookupTier = "memory"
	} else if s.cfg.Store != nil {
		if payload, ok := s.cfg.Store.Get(key); ok {
			s.cache.add(key, payload)
			body, lookupTier = payload, "store"
		}
	}
	lookup := time.Since(tLookup)
	span.stages.LookupUs = us(lookup)
	s.metrics.observeStage(stageLookup, lookup)
	switch lookupTier {
	case "memory":
		s.memHits.Add(1)
		respond(w, body, "memory")
		s.finish(span, http.StatusOK, "memory-hit", "memory", len(body))
		return
	case "store":
		s.storeHits.Add(1)
		respond(w, body, "store")
		s.finish(span, http.StatusOK, "store-hit", "store", len(body))
		return
	}
	// Tier 3: single-flight on the in-progress computation, else admit.
	s.mu.Lock()
	if f, ok := s.flights[key]; ok {
		f.waiters++
		s.mu.Unlock()
		s.collapsed.Add(1)
		s.settle(w, r, span, f, "flight", "collapsed")
		return
	}
	if s.draining {
		queued := s.queued
		s.mu.Unlock()
		s.drainRefused.Add(1)
		w.Header().Set("Retry-After", s.retryAfter(queued))
		n := writeError(w, http.StatusServiceUnavailable, "draining")
		s.finish(span, http.StatusServiceUnavailable, "drain-refused", "", n)
		return
	}
	if s.queued >= s.cfg.QueueDepth {
		queued := s.queued
		s.mu.Unlock()
		s.rejected.Add(1)
		w.Header().Set("Retry-After", s.retryAfter(queued))
		n := writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("queue full (%d computations admitted)", s.cfg.QueueDepth))
		s.finish(span, http.StatusTooManyRequests, "rejected", "", n)
		return
	}
	fctx, cancel := context.WithCancel(context.Background())
	f := &flight{done: make(chan struct{}), cancel: cancel, waiters: 1}
	s.flights[key] = f
	s.queued++
	s.wg.Add(1)
	s.mu.Unlock()

	go s.compute(fctx, req, f, time.Now())
	s.settle(w, r, span, f, "none", "computed")
}

// retryAfter derives the Retry-After value for a backpressure response
// (429/503) from live load instead of a hardcoded constant: the time to
// drain the current queue through the worker pool at the observed mean
// simulate latency, rounded up to whole seconds and clamped to [1,30].
// The clamp guarantees a positive integer before any latency has been
// observed (mean 0) and keeps the hint bounded when the queue backs up
// behind pathologically slow jobs.
func (s *Server) retryAfter(queued int) string {
	mean := s.metrics.stage[stageSimulate].Mean() // seconds; 0 with no observations
	secs := math.Ceil(float64(queued) * mean / float64(s.cfg.Workers))
	if secs < 1 || math.IsNaN(secs) {
		secs = 1
	} else if secs > 30 {
		secs = 30
	}
	return strconv.Itoa(int(secs))
}

// settle awaits the flight, serves its response, and closes the request's
// access span. The originating request ("none") inherits the flight's
// compute-side stage spans. A client that goes away before the flight
// completes is logged as abandoned; when it was the flight's last waiter the
// computation has no audience left, so it is canceled — the engine stops at
// its next epoch boundary and nothing is cached.
func (s *Server) settle(w http.ResponseWriter, r *http.Request, span *accessSpan, f *flight, tier, outcome string) {
	select {
	case <-f.done:
		if tier == "none" {
			span.stages.QueueWaitUs = f.stages.QueueWaitUs
			span.stages.SimulateUs = f.stages.SimulateUs
			span.stages.MarshalUs = f.stages.MarshalUs
			span.stages.PersistUs = f.stages.PersistUs
		}
		// A failed flight's error reaches every waiter; a persist error
		// only the request that owned the computation.
		if tier == "none" || f.status != http.StatusOK {
			span.err = f.err
		}
		if f.status == http.StatusOK {
			respond(w, f.body, tier)
			s.finish(span, f.status, outcome, tier, len(f.body))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(f.status)
		w.Write(f.body)
		s.finish(span, f.status, f.outcome, tier, len(f.body))
	case <-r.Context().Done():
		s.mu.Lock()
		f.waiters--
		last := f.waiters == 0
		s.mu.Unlock()
		if last {
			f.cancel()
		}
		// 499: nginx's "client closed request" — never sent, log-only.
		s.finish(span, 499, "abandoned", tier, 0)
	}
}

// compute runs one cache-miss simulation on a worker slot under a
// cooperative fault policy, publishes the marshaled response to the durable
// store and the LRU before releasing the flight, and never lets a panicking,
// hung, or canceled job take the daemon down — or leave a goroutine behind.
// ctx is the flight's context: canceling it (last waiter gone, drain
// deadline) stops the engine at its next epoch boundary, and the partial
// result is never cached.
func (s *Server) compute(ctx context.Context, req resolved, f *flight, admitted time.Time) {
	defer s.wg.Done()
	defer f.cancel() // release the flight context on every path
	sp, key := req.spec, req.key

	var res sim.Result
	var err error
	select {
	case s.sem <- struct{}{}: // wait for a worker slot
		queueWait := time.Since(admitted)
		f.stages.QueueWaitUs = us(queueWait)
		s.metrics.observeStage(stageQueueWait, queueWait)
		s.inFlight.Add(1)

		tSim := time.Now()
		pol := runner.FaultPolicy{Timeout: s.cfg.JobTimeout, Metrics: s.jobMetrics}
		res, err = runner.Execute(ctx, pol, req.id,
			func(ctx context.Context) (sim.Result, error) {
				if hook := s.getComputeHook(); hook != nil {
					hook(key)
				}
				cfg, err := sp.Config()
				if err != nil {
					return sim.Result{}, err
				}
				sys, err := sp.NewSystem(cfg)
				if err != nil {
					return sim.Result{}, err
				}
				return sys.RunCtx(ctx, 0, func(p sim.Progress) {
					f.records.Store(p.Records)
				})
			})
		simulate := time.Since(tSim)
		f.stages.SimulateUs = us(simulate)
		s.metrics.observeStage(stageSimulate, simulate)

		s.inFlight.Add(-1)
		<-s.sem
	case <-ctx.Done():
		// Canceled while still queued: bail without taking a slot.
		err = ctx.Err()
	}

	var body []byte
	status := http.StatusOK
	outcome := "computed"
	if err == nil {
		tMarshal := time.Now()
		body, err = json.Marshal(BuildResult(sp, res))
		marshal := time.Since(tMarshal)
		f.stages.MarshalUs = us(marshal)
		s.metrics.observeStage(stageMarshal, marshal)
	}
	if err != nil {
		var te *runner.TimeoutError
		var pe *runner.PanicError
		switch {
		case errors.As(err, &pe):
			// A recovered panic is a server bug: the access log records the
			// panic, the client learns only that the server failed.
			s.panicked.Add(1)
			outcome, status = "panic", http.StatusInternalServerError
		case errors.As(err, &te):
			s.failed.Add(1)
			outcome, status = "failed", http.StatusGatewayTimeout
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			s.canceled.Add(1)
			outcome, status = "canceled", http.StatusServiceUnavailable
			err = errors.New("simulation canceled before completion")
		default:
			s.failed.Add(1)
			outcome, status = "failed", http.StatusInternalServerError
		}
		f.err = err.Error()
		msg := f.err
		if pe != nil {
			msg = "internal error: the simulation panicked"
		}
		doc, _ := json.Marshal(struct {
			Error string `json:"error"`
		}{msg})
		body = doc
	} else {
		// Persist before publishing: a client that saw this response can
		// rely on a restart replaying it (PutRaw fsyncs).
		if s.cfg.Store != nil {
			tPersist := time.Now()
			if perr := s.cfg.Store.PutRaw(key, req.id, body); perr != nil {
				f.err = perr.Error()
			}
			persist := time.Since(tPersist)
			f.stages.PersistUs = us(persist)
			s.metrics.observeStage(stagePersist, persist)
		}
		s.cache.add(key, body)
		s.computed.Add(1)
	}

	f.status = status
	f.body = body
	f.outcome = outcome
	close(f.done)

	// Release the flight last: by now the result (if any) is already in the
	// cache, so there is no window where neither tier covers the key.
	s.mu.Lock()
	delete(s.flights, key)
	s.queued--
	s.mu.Unlock()
}
