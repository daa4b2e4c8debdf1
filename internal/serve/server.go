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
	// QueueDepth bounds admitted distinct computations whose worker has not
	// returned: waiting for a worker, running, or abandoned and unwinding. A
	// request that would exceed it is refused with 429 and Retry-After; <=0
	// means max(4, 4*Workers). Collapsed duplicates never consume queue slots.
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
	Workers    int `json:"workers"`
	QueueDepth int `json:"queueDepth"`
	// Queued counts admitted computations whose worker has not returned.
	Queued   int  `json:"queued"`
	InFlight int  `json:"inFlight"`
	Draining bool `json:"draining"`
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

	flights  flightTable
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

	computeHook atomic.Pointer[func(key string)]

	logMu sync.Mutex // serializes AccessLog writes
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
		flights: flightTable{live: make(map[string]*flight), depth: cfg.QueueDepth},
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
	s.computeHook.Store(&fn)
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
	queued, draining, _ := s.flights.load()
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

// Drain stops admitting new computations and waits for admitted ones to
// finish (and persist). If ctx ends first, it cancels every live computation,
// still waits for the workers to unwind, and returns ctx's error: a drained
// server leaves no simulating goroutine behind either way.
func (s *Server) Drain(ctx context.Context) error {
	return s.flights.drain(ctx)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !allowGetHead(w, r) {
		return
	}
	if _, draining, _ := s.flights.load(); draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if r.Method == http.MethodGet {
		fmt.Fprintln(w, "ok")
	}
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if !allowGetHead(w, r) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if r.Method == http.MethodGet {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Status())
	}
}

// writeError answers a JSON error document, returning its body length.
func writeError(w http.ResponseWriter, status int, msg string) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	n, _ := w.Write(append(errorDoc(msg), '\n'))
	return n
}

// errorDoc is the JSON error document {"error": msg}.
func errorDoc(msg string) []byte {
	doc, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	return doc
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
	span.stages.DecodeUs = s.metrics.since(stageDecode, tDecode)
	if err != nil {
		s.invalid.Add(1)
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		span.err = err.Error()
		s.finish(span, status, "invalid", "", writeError(w, status, span.err))
		return
	}
	span.spec = req.id
	key := req.key

	// Tiers 1 and 2: the in-memory LRU, then the durable store
	// (checksum-verified by Get). Both probes share the lookup span.
	tLookup := time.Now()
	tier, outcome, hits := "memory", "memory-hit", &s.memHits
	body, hit := s.cache.get(key)
	if !hit && s.cfg.Store != nil {
		if body, hit = s.cfg.Store.Get(key); hit {
			s.cache.add(key, body)
			tier, outcome, hits = "store", "store-hit", &s.storeHits
		}
	}
	span.stages.LookupUs = s.metrics.since(stageLookup, tLookup)
	if hit {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Streamd-Cache", tier)
		w.Write(body)
		s.finish(span, http.StatusOK, outcome, tier, len(body))
		return
	}
	// Tier 3: join the key's live flight, else admit a fresh one.
	f, fresh, queued, draining := s.flights.join(key)
	switch {
	case fresh:
		go s.compute(req, f, time.Now())
		s.await(w, r, span, f, "none", "computed")
	case f != nil:
		s.collapsed.Add(1)
		s.await(w, r, span, f, "flight", "collapsed")
	case draining:
		s.drainRefused.Add(1)
		w.Header().Set("Retry-After", s.retryAfter(queued))
		s.finish(span, http.StatusServiceUnavailable, "drain-refused", "",
			writeError(w, http.StatusServiceUnavailable, "draining"))
	default:
		s.rejected.Add(1)
		w.Header().Set("Retry-After", s.retryAfter(queued))
		s.finish(span, http.StatusTooManyRequests, "rejected", "", writeError(w,
			http.StatusTooManyRequests, fmt.Sprintf("queue full (%d computations admitted)", s.cfg.QueueDepth)))
	}
}

// retryAfter derives the Retry-After value for a backpressure response
// (429/503) from live load: the time to drain the queue through the worker
// pool at the observed mean simulate latency, in whole seconds clamped to
// [1,30] (1 before any latency is observed).
func (s *Server) retryAfter(queued int) string {
	mean := s.metrics.stage[stageSimulate].Mean() // seconds; 0 with no observations
	secs := math.Ceil(float64(queued) * mean / float64(s.cfg.Workers))
	if math.IsNaN(secs) {
		secs = 1
	}
	return strconv.Itoa(int(min(max(secs, 1), 30)))
}

// await waits for the flight and serves its response under tier, the
// X-Streamd-Cache value: "none" for the request that admitted the flight,
// "flight" for one that joined it. The originating request's access span
// inherits the flight's compute-side stages. A client that goes away first
// is logged as abandoned and leaves the flight, canceling it if it was the
// last waiter.
func (s *Server) await(w http.ResponseWriter, r *http.Request, span *accessSpan, f *flight, tier, outcome string) {
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
		w.Header().Set("Content-Type", "application/json")
		if f.status == http.StatusOK {
			w.Header().Set("X-Streamd-Cache", tier)
		} else {
			outcome = f.outcome
			w.WriteHeader(f.status)
		}
		w.Write(f.body)
		s.finish(span, f.status, outcome, tier, len(f.body))
	case <-r.Context().Done():
		s.flights.leave(f)
		// 499: nginx's "client closed request" — never sent, log-only.
		s.finish(span, 499, "abandoned", tier, 0)
	}
}

// compute runs one cache-miss simulation on a worker slot under a
// cooperative fault policy, publishes the marshaled response to the durable
// store and the LRU, then settles the flight. A panicking, hung or canceled
// job never takes the daemon down or leaves a goroutine behind.
func (s *Server) compute(req resolved, f *flight, admitted time.Time) {
	ctx, sp, key := f.ctx, req.spec, req.key

	var res sim.Result
	var err error
	select {
	case s.sem <- struct{}{}: // wait for a worker slot
		f.stages.QueueWaitUs = s.metrics.since(stageQueueWait, admitted)
		s.inFlight.Add(1)
		s.flights.start(f)

		tSim := time.Now()
		pol := runner.FaultPolicy{Timeout: s.cfg.JobTimeout, Metrics: s.jobMetrics}
		res, err = runner.Execute(ctx, pol, req.id,
			func(ctx context.Context) (sim.Result, error) {
				if hook := s.computeHook.Load(); hook != nil && *hook != nil {
					(*hook)(key)
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
		f.stages.SimulateUs = s.metrics.since(stageSimulate, tSim)

		s.inFlight.Add(-1)
		<-s.sem
	case <-ctx.Done():
		// Canceled while still queued: bail without taking a slot.
		err = ctx.Err()
	}

	var body []byte
	status, outcome := http.StatusOK, "computed"
	if err == nil {
		tMarshal := time.Now()
		body, err = json.Marshal(BuildResult(sp, res))
		f.stages.MarshalUs = s.metrics.since(stageMarshal, tMarshal)
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
		body = errorDoc(f.err)
		if pe != nil {
			body = errorDoc("internal error: the simulation panicked")
		}
	} else {
		// Persist before publishing: a client that saw this response can
		// rely on a restart replaying it (PutRaw fsyncs).
		if s.cfg.Store != nil {
			tPersist := time.Now()
			if perr := s.cfg.Store.PutRaw(key, req.id, body); perr != nil {
				f.err = perr.Error()
			}
			f.stages.PersistUs = s.metrics.since(stagePersist, tPersist)
		}
		s.cache.add(key, body)
		s.computed.Add(1)
	}

	// Settle last: a result is already in the cache, so there is no window
	// where neither tier covers the key.
	f.status, f.body, f.outcome = status, body, outcome
	s.flights.settle(f)
}
