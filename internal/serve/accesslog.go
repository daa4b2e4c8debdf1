package serve

import (
	"encoding/json"
	"time"
)

// This file is the daemon's structured access log: one JSONL record per
// /simulate request, the one per-request record the daemon keeps. Each line
// is written to Config.AccessLog in a single Write under a server mutex, so
// lines from concurrent handlers never interleave. Each record carries the
// same request ID the response exposes as X-Streamd-Request.

// AccessRecord is one request's access-log line.
type AccessRecord struct {
	Type string `json:"type"` // always "access"
	// ID is the request's unique ID, identical to the X-Streamd-Request
	// response header: "<boot nonce>-<arrival seq>".
	ID string `json:"id"`
	// Spec is the request's canonical configuration ID (Spec.ID), empty
	// when the body never decoded.
	Spec string `json:"spec,omitempty"`
	// Status is the HTTP status served, or 499 when the client went away
	// before the response was ready (outcome "abandoned").
	Status int `json:"status"`
	// Outcome is the request's accounting class: invalid, memory-hit,
	// store-hit, collapsed, computed, failed, panic, canceled, rejected,
	// drain-refused, or abandoned.
	Outcome string `json:"outcome"`
	// Tier is the serving cache tier (none, memory, store, flight) for
	// requests that produced a simulation response.
	Tier string `json:"tier,omitempty"`
	// Bytes is the response body length.
	Bytes int `json:"bytes"`
	// DurationUs is the request's total wall clock in microseconds.
	DurationUs int64 `json:"durationUs"`
	// Slow marks requests at or over Config.SlowRequest; only such requests
	// carry Stages.
	Slow bool `json:"slow,omitempty"`
	// Stages is the full span breakdown, promoted into the log for slow
	// requests. Compute-side stages (queueWait onward) appear only on the
	// request that owned the computation.
	Stages *StageTimings `json:"stages,omitempty"`
	// Error is the failure text, when there is one: the decode error of an
	// invalid request, the computation's error on every waiter of a failed,
	// panicked or canceled flight (a panic's text reaches only this log, not
	// the response), or the store's persist error on a request that is
	// otherwise computed.
	Error string `json:"error,omitempty"`
}

// StageTimings is a request's per-stage span breakdown in microseconds.
// Every stage is also observed into the streamd_request_stage_seconds
// histogram regardless of the slow-request threshold.
type StageTimings struct {
	DecodeUs    int64 `json:"decodeUs"`
	LookupUs    int64 `json:"lookupUs,omitempty"`
	QueueWaitUs int64 `json:"queueWaitUs,omitempty"`
	SimulateUs  int64 `json:"simulateUs,omitempty"`
	MarshalUs   int64 `json:"marshalUs,omitempty"`
	PersistUs   int64 `json:"persistUs,omitempty"`
}

// accessSpan accumulates one request's identity and spans as the handler
// walks the tiers; finish turns it into the log record and the latency
// observation.
type accessSpan struct {
	id     string
	t0     time.Time
	spec   string
	stages StageTimings
	err    string
}

// us returns d in whole microseconds, flooring at 1 so a recorded stage is
// never rendered as absent by omitempty.
func us(d time.Duration) int64 { return max(d.Microseconds(), 1) }

// finish closes the span: observes the total-latency histogram and, when an
// access log is configured, writes the record (with the stage breakdown when
// the request met the slow threshold). Write errors are the writer's to keep
// (see Config.AccessLog).
func (s *Server) finish(sp *accessSpan, status int, outcome, tier string, bytes int) {
	elapsed := time.Since(sp.t0)
	s.metrics.request.Observe(elapsed.Seconds())
	if s.cfg.AccessLog == nil {
		return
	}
	rec := AccessRecord{
		Type:       "access",
		ID:         sp.id,
		Spec:       sp.spec,
		Status:     status,
		Outcome:    outcome,
		Tier:       tier,
		Bytes:      bytes,
		DurationUs: us(elapsed),
		Error:      sp.err,
	}
	if s.cfg.SlowRequest > 0 && elapsed >= s.cfg.SlowRequest {
		// A copy: pointing into sp would move every request's span to the heap.
		stages := sp.stages
		rec.Slow, rec.Stages = true, &stages
	}
	line, _ := json.Marshal(rec) // plain strings and numbers: cannot fail
	line = append(line, '\n')
	s.logMu.Lock()
	s.cfg.AccessLog.Write(line)
	s.logMu.Unlock()
}
