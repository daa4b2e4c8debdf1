package serve

import (
	"context"
	"sync"
	"sync/atomic"
)

// flightState is where one admitted computation is in its life. Identical
// requests join a queued or running flight; an abandoned one (its last
// waiter left, or the drain deadline passed) is out of the table and
// unwinding, so the next identical request is admitted afresh.
type flightState uint8

const (
	flightQueued    flightState = iota // waiting for a worker slot
	flightRunning                      // holding a worker slot
	flightAbandoned                    // canceled, still counted as queued
	flightSettled                      // answered, out of table and queue
)

// flight is one admitted computation; its waiters block on done and share
// its response. status, body, outcome, err and stages are written by the
// computing goroutine before done closes, so waiters that observed the
// close may read them (the originating request promotes stages into its
// access record).
type flight struct {
	key  string
	done chan struct{}
	// cancel stops ctx's computation at its next epoch boundary.
	ctx    context.Context
	cancel context.CancelFunc
	// state and waiters (requests awaiting done) are guarded by the table.
	state   flightState
	waiters int

	status  int
	body    []byte
	outcome string
	// err is the computation's error text, or on success the store's
	// persist error; empty when neither happened.
	err    string
	stages StageTimings
	// records is the live progress (trace records retired) for the
	// streamd_sim_progress gauge.
	records atomic.Uint64
}

// flightTable is admission control and the single-flight table. A flight
// leaves the table by identity, never by key alone, so an unwinding flight
// cannot remove its successor; it leaves the queue only when its worker
// returns, so backpressure and drain still see an abandoned one.
type flightTable struct {
	mu            sync.Mutex
	live          map[string]*flight // the queued and running flights
	queued, depth int                // admitted flights not yet settled; the bound
	draining      bool
	workers       sync.WaitGroup // one per admitted flight
}

// join adds a waiter to key's live flight, or admits a fresh one whose worker
// the caller starts. It returns nil when draining or when queued reached the
// depth, and also the queued count and draining flag it decided on.
func (t *flightTable) join(key string) (f *flight, fresh bool, queued int, draining bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f = t.live[key]
	if f == nil && !t.draining && t.queued < t.depth {
		f, fresh = &flight{key: key, done: make(chan struct{})}, true
		f.ctx, f.cancel = context.WithCancel(context.Background())
		t.live[key] = f
		t.queued++
		t.workers.Add(1)
	}
	if f != nil {
		f.waiters++
	}
	return f, fresh, t.queued, t.draining
}

// start records that f's worker took a worker slot.
func (t *flightTable) start(f *flight) {
	t.mu.Lock()
	if f.state == flightQueued {
		f.state = flightRunning
	}
	t.mu.Unlock()
}

// leave drops a waiter that gave up on f; the last one abandons f.
func (t *flightTable) leave(f *flight) {
	t.mu.Lock()
	if f.waiters--; f.waiters == 0 {
		t.abandon(f)
	}
	t.mu.Unlock()
}

// abandon cancels f and takes it out of the table if it is live. t.mu is held.
func (t *flightTable) abandon(f *flight) {
	if t.live[f.key] == f {
		delete(t.live, f.key)
		f.state = flightAbandoned
		f.cancel()
	}
}

// settle ends f's worker, which has written f's answer. f leaves the table
// and the queue before done wakes its waiters, so no request that follows
// the answer can join f.
func (t *flightTable) settle(f *flight) {
	t.mu.Lock()
	if t.live[f.key] == f {
		delete(t.live, f.key)
	}
	f.state = flightSettled
	t.queued--
	t.mu.Unlock()
	close(f.done)
	f.cancel() // release the context
	t.workers.Done()
}

// stopAdmitting makes join refuse every request that finds no live flight.
func (t *flightTable) stopAdmitting() {
	t.mu.Lock()
	t.draining = true
	t.mu.Unlock()
}

// abort abandons every live flight: the drain deadline passed.
func (t *flightTable) abort() {
	t.mu.Lock()
	for _, f := range t.live {
		t.abandon(f)
	}
	t.mu.Unlock()
}

// drain stops admitting and waits for every admitted flight's worker. If
// ctx ends first it aborts the live flights, still waits, and returns
// ctx's error.
func (t *flightTable) drain(ctx context.Context) error {
	t.stopAdmitting()
	done := make(chan struct{})
	go func() { t.workers.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		t.abort()
		<-done
		return ctx.Err()
	}
}

// load returns the queued count, whether admission has stopped, and the
// trace records the live flights have retired.
func (t *flightTable) load() (queued int, draining bool, records uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, f := range t.live {
		records += f.records.Load()
	}
	return t.queued, t.draining, records
}
