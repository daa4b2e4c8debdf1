package serve

// Cancellation-path coverage: client disconnect mid-simulate, job timeout,
// and drain-deadline abort. Each path must (1) stop the simulation promptly,
// (2) never cache a partial result, (3) account the outcome in the canceled
// or failed counter, and (4) leave zero goroutines behind — the requests here
// go straight through Handler().ServeHTTP with no sockets, so a bare
// runtime.NumGoroutine() before/after comparison is meaningful.

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// slowBody is a simulation near the instruction ceiling: far too slow to
// finish inside any test, so the only way these requests end is cancellation
// or timeout — which is exactly what is under test.
const slowBody = `{"workload":"sphinx06","footprint":0.05,"warmup":1000,"measure":99000000,"llcSets":16,"metaKb":8}`

// directPost performs one in-process /simulate request (no client, no
// listener), returning the recorder after the handler fully settles. A nil
// ctx means the request is never abandoned.
func directPost(s *Server, ctx context.Context, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/simulate", strings.NewReader(body))
	if ctx != nil {
		req = req.WithContext(ctx)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

// scrapeGauge reads one metric's current value straight off the server's
// registry exposition.
func scrapeGauge(t *testing.T, s *Server, name string) float64 {
	t.Helper()
	var sb strings.Builder
	s.Metrics().WriteText(&sb)
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
		if err != nil {
			t.Fatalf("unparseable %s sample %q: %v", name, line, err)
		}
		return v
	}
	t.Fatalf("metric %s not found in exposition", name)
	return 0
}

// assertGoroutinesSettle fails unless the goroutine count returns to the
// baseline captured before the test body ran — the no-abandoned-goroutines
// guarantee, with a settle window for the runtime to reap exited goroutines.
func assertGoroutinesSettle(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines did not settle: before=%d now=%d", before, runtime.NumGoroutine())
}

// TestClientDisconnectNotCached is the regression for the abandoned-flight
// bug: a client that disconnects mid-simulate cancels the computation (it was
// the only audience), the partial result is NOT cached, and an identical
// re-request recomputes from scratch. Deterministic ordering: the compute
// hook gates the first simulation until after the disconnect has propagated,
// so the engine observes an already-canceled context.
func TestClientDisconnectNotCached(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{})
	gate := make(chan struct{})
	var first atomic.Bool
	s.SetComputeHook(func(string) {
		if first.CompareAndSwap(false, true) {
			<-gate
		}
	})

	ctx, cancel := context.WithCancel(context.Background())
	settled := make(chan *httptest.ResponseRecorder, 1)
	go func() { settled <- directPost(s, ctx, tinyBody) }()
	waitFor(t, "flight admission", func() bool { return s.Status().Queued == 1 })

	cancel()    // the client goes away
	<-settled   // handler returned via the abandoned path: flight canceled
	close(gate) // now let the simulation proceed into its canceled context

	waitFor(t, "cancellation accounting", func() bool { return s.Counters().Canceled == 1 })
	if c := s.Counters(); c.Computed != 0 || c.Failed != 0 {
		t.Fatalf("counters after disconnect: %+v, want computed=0 failed=0 canceled=1", c)
	}
	if n := s.cache.len(); n != 0 {
		t.Fatalf("canceled computation was cached (%d entries)", n)
	}

	// The identical re-request must recompute — nothing was cached — even
	// while the canceled worker may still be unwinding.
	rec := directPost(s, nil, tinyBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("re-request: status %d, want 200\n%s", rec.Code, rec.Body.String())
	}
	if tier := rec.Header().Get("X-Streamd-Cache"); tier != "none" {
		t.Errorf("re-request tier %q, want none (disconnect must not populate any tier)", tier)
	}
	if c := s.Counters(); c.Computed != 1 || c.Canceled != 1 {
		t.Errorf("counters after re-request: %+v, want computed=1 canceled=1", c)
	}

	// The outcome is visible on both observability surfaces.
	if s.Status().Canceled != 1 {
		t.Error("statusz does not report the canceled computation")
	}
	var sb strings.Builder
	s.Metrics().WriteText(&sb)
	if !strings.Contains(sb.String(), `streamd_responses_total{outcome="canceled"} 1`) {
		t.Error("metricz does not expose the canceled outcome counter")
	}
	assertGoroutinesSettle(t, before)
}

// TestAbandonedFlightIsNotJoined: a flight whose only client went away is
// canceled and leaves the table at once, so an identical request that
// arrives while the canceled engine is still unwinding computes afresh
// instead of sharing the canceled flight's 503. The compute hook holds the
// abandoned computation until the second request has been admitted.
func TestAbandonedFlightIsNotJoined(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{})
	entered, gate := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	s.SetComputeHook(func(string) {
		if first.CompareAndSwap(false, true) {
			close(entered)
			<-gate
		}
	})

	ctx, cancel := context.WithCancel(context.Background())
	abandoned := make(chan *httptest.ResponseRecorder, 1)
	go func() { abandoned <- directPost(s, ctx, tinyBody) }()
	<-entered // the first computation holds a worker inside the hook
	cancel()  // its only client goes away
	<-abandoned

	second := make(chan *httptest.ResponseRecorder, 1)
	go func() { second <- directPost(s, nil, tinyBody) }()
	// It either computes on its own, or has joined the held flight.
	var rec *httptest.ResponseRecorder
	waitFor(t, "the identical request to finish or join", func() bool {
		select {
		case rec = <-second:
			return true
		default:
			return s.Counters().Collapsed == 1
		}
	})
	close(gate) // the abandoned computation unwinds into its canceled context
	if rec == nil {
		rec = <-second
	}
	if rec.Code != http.StatusOK || rec.Header().Get("X-Streamd-Cache") != "none" {
		t.Fatalf("identical request after the abandonment: status %d tier %q, want 200/none\n%s",
			rec.Code, rec.Header().Get("X-Streamd-Cache"), rec.Body.String())
	}
	waitFor(t, "the abandoned worker to unwind", func() bool { return s.Status().Queued == 0 })
	if c := s.Counters(); c.Collapsed != 0 || c.Computed != 1 || c.Canceled != 1 {
		t.Errorf("counters %+v, want collapsed=0 computed=1 canceled=1", c)
	}
	assertGoroutinesSettle(t, before)
}

// TestRetryAfterFailureComputesAfresh: every computation here panics, and
// each request is re-sent the moment its 500 arrives. A failed flight leaves
// the table before its waiters wake, so every retry is admitted afresh and
// none joins the flight that just failed. Status pollers contend for the
// server's locks, as monitoring scrapes do, which holds any window between
// the answer and the flight's release open long enough to be hit: with the
// release after the wake, this failed 4 runs in 10 on a 2-CPU container.
func TestRetryAfterFailureComputesAfresh(t *testing.T) {
	s := New(Config{})
	s.SetComputeHook(func(string) { panic("kaboom") })
	stop := make(chan struct{})
	defer close(stop)
	for range 4 {
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
					s.Status()
				}
			}
		}()
	}
	const n = 1000
	for i := range n {
		if rec := directPost(s, nil, tinyBody); rec.Code != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d, want 500\n%s", i, rec.Code, rec.Body.String())
		}
	}
	if c := s.Counters(); c.Panicked != n || c.Collapsed != 0 {
		t.Errorf("counters %+v, want panicked=%d collapsed=0", c, n)
	}
}

// TestJobTimeoutFreesWorkerSlot: a cooperative timeout stops the engine at
// its next epoch boundary, answers 504, and genuinely frees the worker slot
// — with a single worker, a follow-up request computes immediately. The
// simulation is real (no hook): the near-ceiling spec cannot finish, so the
// 504 proves the timeout interrupted a live engine.
func TestJobTimeoutFreesWorkerSlot(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{Workers: 1, JobTimeout: 50 * time.Millisecond})

	rec := directPost(s, nil, slowBody)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("hung job: status %d, want 504\n%s", rec.Code, rec.Body.String())
	}
	if c := s.Counters(); c.Failed != 1 || c.Computed != 0 || c.Canceled != 0 {
		t.Fatalf("counters after timeout: %+v, want failed=1 computed=0 canceled=0", c)
	}

	// The only worker slot must be free again: a fast request succeeds.
	rec = directPost(s, nil, tinyBody)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Streamd-Cache") != "none" {
		t.Fatalf("post-timeout request: status %d tier %q, want 200/none",
			rec.Code, rec.Header().Get("X-Streamd-Cache"))
	}
	if got := s.inFlight.Load(); got != 0 {
		t.Errorf("inFlight=%d after both requests settled, want 0", got)
	}
	assertGoroutinesSettle(t, before)
}

// TestDrainDeadlineCancelsInFlight: when Drain's context expires, every
// in-flight computation is canceled cooperatively, its waiter answers 503
// with the canceled outcome, and Drain returns only after the workers have
// unwound — no simulating goroutine survives a drained server.
func TestDrainDeadlineCancelsInFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{})

	settled := make(chan *httptest.ResponseRecorder, 1)
	go func() { settled <- directPost(s, nil, slowBody) }()
	waitFor(t, "simulation to take a worker slot", func() bool {
		return s.inFlight.Load() == 1
	})
	// The live-progress gauge must tick while the engine runs.
	waitFor(t, "streamd_sim_progress to advance", func() bool {
		return scrapeGauge(t, s, "streamd_sim_progress") > 0
	})

	dctx, dcancel := context.WithCancel(context.Background())
	dcancel() // deadline already passed: Drain must cancel, not wait
	if err := s.Drain(dctx); err != context.Canceled {
		t.Fatalf("Drain = %v, want context.Canceled", err)
	}

	rec := <-settled
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("aborted waiter: status %d, want 503\n%s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "canceled before completion") {
		t.Errorf("aborted waiter body %q does not explain the cancellation", rec.Body.String())
	}
	if c := s.Counters(); c.Canceled != 1 || c.Computed != 0 {
		t.Errorf("counters after drain abort: %+v, want canceled=1 computed=0", c)
	}
	if n := s.cache.len(); n != 0 {
		t.Errorf("drain-aborted computation was cached (%d entries)", n)
	}
	if g := scrapeGauge(t, s, "streamd_sim_progress"); g != 0 {
		t.Errorf("streamd_sim_progress=%v after drain, want 0 (no flights left)", g)
	}
	assertGoroutinesSettle(t, before)
}
