package serve

import (
	"net/http"
	"time"

	"streamline/internal/metrics"
)

// This file is the daemon's service-level metrics surface: the instrument
// set every Server carries (always on — recording is a few atomics, and
// /simulate bodies are byte-identical either way) and the GET /metricz
// exposition endpoint. Counters mirror the Counters() accounting through
// read-at-scrape funcs so there is a single source of truth; stage latencies
// are real histograms observed on the request path.

// Stage names, in request-lifecycle order. Each is one span of a /simulate
// request, recorded into streamd_request_stage_seconds{stage=...} and — for
// slow requests — into the access log's stage breakdown.
const (
	stageDecode    = "decode"     // read the body + resolve it: a memo lookup, else strict-parse + normalize
	stageLookup    = "lookup"     // memory LRU probe, then durable store probe
	stageQueueWait = "queue_wait" // admission until a worker slot is acquired
	stageSimulate  = "simulate"   // the simulation itself, under the fault policy
	stageMarshal   = "marshal"    // result struct to canonical JSON
	stagePersist   = "persist"    // fsynced append into the durable store
)

// serverMetrics is one Server's instrument set over its registry.
type serverMetrics struct {
	reg     *metrics.Registry
	request *metrics.Histogram
	stage   map[string]*metrics.Histogram
}

// newServerMetrics wires the server's instruments: response-outcome counter
// funcs reading the existing atomic accounting, gauge funcs reading live
// queue/worker/cache state, and the stage/total latency histograms. reg may
// be nil (the server then owns a private registry); a non-nil reg must not
// already carry another server's instruments.
func newServerMetrics(s *Server, reg *metrics.Registry) *serverMetrics {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	m := &serverMetrics{
		reg: reg,
		request: reg.Histogram("streamd_request_seconds",
			"total /simulate wall clock from first byte to response", metrics.LatencyBuckets),
		stage: make(map[string]*metrics.Histogram),
	}
	for _, st := range []string{stageDecode, stageLookup, stageQueueWait, stageSimulate, stageMarshal, stagePersist} {
		m.stage[st] = reg.Histogram("streamd_request_stage_seconds",
			"per-stage /simulate latency", metrics.LatencyBuckets, metrics.L("stage", st))
	}

	reg.CounterFunc("streamd_requests_total",
		"every /simulate request accepted for decoding", s.requests.Load)
	outcomes := map[string]func() uint64{
		"invalid":       s.invalid.Load,
		"memory_hit":    s.memHits.Load,
		"store_hit":     s.storeHits.Load,
		"collapsed":     s.collapsed.Load,
		"computed":      s.computed.Load,
		"failed":        s.failed.Load,
		"panic":         s.panicked.Load,
		"canceled":      s.canceled.Load,
		"rejected":      s.rejected.Load,
		"drain_refused": s.drainRefused.Load,
	}
	for name, fn := range outcomes {
		reg.CounterFunc("streamd_responses_total",
			"completed /simulate requests by outcome", fn, metrics.L("outcome", name))
	}

	gauges := []struct {
		name, help string
		fn         func() float64
	}{
		{"streamd_queue_depth", "admitted computations whose worker has not returned",
			func() float64 { queued, _, _ := s.flights.load(); return float64(queued) }},
		{"streamd_queue_capacity", "admission bound before 429 backpressure",
			func() float64 { return float64(s.cfg.QueueDepth) }},
		{"streamd_inflight_workers", "simulations currently holding a worker slot",
			func() float64 { return float64(s.inFlight.Load()) }},
		{"streamd_worker_capacity", "size of the worker pool",
			func() float64 { return float64(s.cfg.Workers) }},
		{"streamd_sim_progress", "trace records retired so far by in-flight simulations",
			func() float64 { _, _, records := s.flights.load(); return float64(records) }},
		{"streamd_cache_entries", "response bodies resident in the in-memory LRU",
			func() float64 { return float64(s.cache.len()) }},
		{"streamd_draining", "1 while the server refuses new computations",
			func() float64 {
				if _, draining, _ := s.flights.load(); draining {
					return 1
				}
				return 0
			}},
	}
	for _, g := range gauges {
		reg.GaugeFunc(g.name, g.help, g.fn)
	}
	if s.cfg.Store != nil {
		reg.GaugeFunc("streamd_store_records",
			"records in the durable result tier", func() float64 {
				return float64(s.cfg.Store.Len())
			})
	}
	return m
}

// since observes the time since t0 into stage's histogram, returning it in µs.
func (m *serverMetrics) since(stage string, t0 time.Time) int64 {
	d := time.Since(t0)
	m.stage[stage].Observe(d.Seconds())
	return us(d)
}

// Metrics returns the server's registry — the same instance GET /metricz
// renders — so embedders (and tests) can attach their own instruments or
// scrape without HTTP.
func (s *Server) Metrics() *metrics.Registry { return s.metrics.reg }

// handleMetricz serves the Prometheus text exposition.
func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	if !allowGetHead(w, r) {
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if r.Method == http.MethodGet {
		s.metrics.reg.WriteText(w)
	}
}

// allowGetHead admits GET and HEAD, answering anything else with 405 and an
// Allow header — the read-only endpoints' shared method gate, matching
// /simulate's POST-only handling.
func allowGetHead(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		return true
	}
	w.Header().Set("Allow", "GET, HEAD")
	writeError(w, http.StatusMethodNotAllowed, "read-only endpoint: use GET or HEAD")
	return false
}
