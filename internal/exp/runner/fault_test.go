package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamline/internal/metrics"
)

// fakeTimer scripts the timeout timer: each armed timeout is a channel the
// test fires on demand, so timeout behavior is exercised without real
// waiting.
type fakeTimer struct {
	mu     sync.Mutex
	afters []chan time.Time
	armed  chan struct{} // one token per armed timeout; buffered past any test's attempt count so after never blocks
}

// scriptTimeouts swaps the package timer for a fakeTimer until the test
// ends.
func scriptTimeouts(t *testing.T) *fakeTimer {
	c := &fakeTimer{armed: make(chan struct{}, 64)}
	after = c.after
	t.Cleanup(func() { after = time.After })
	return c
}

func (c *fakeTimer) after(time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	c.afters = append(c.afters, ch)
	c.mu.Unlock()
	c.armed <- struct{}{}
	return ch
}

// fireTimeout fires the i-th timer, first waiting for Execute to arm it:
// the attempt's goroutine can report "started" before Execute reaches its
// select.
func (c *fakeTimer) fireTimeout(i int) {
	<-c.armed
	c.mu.Lock()
	ch := c.afters[i]
	c.mu.Unlock()
	ch <- time.Time{}
}

// TestErrorRunsOnce: a job returning a plain error is attempted exactly
// once, its error passes through unchanged, and it is counted Failed.
func TestErrorRunsOnce(t *testing.T) {
	m := NewMetrics(metrics.NewRegistry())
	boom := errors.New("boom")
	attempts := 0
	_, err := Execute(context.Background(), FaultPolicy{Metrics: m}, "doomed",
		func(context.Context) (int, error) {
			attempts++
			return 0, boom
		})
	if err != boom {
		t.Fatalf("err = %v, want the job's own error", err)
	}
	if attempts != 1 {
		t.Errorf("attempts = %d, want 1", attempts)
	}
	if m.Failed.Value() != 1 || m.Completed.Value() != 0 || m.Retries.Value() != 0 {
		t.Errorf("failed/completed/retries = %d/%d/%d, want 1/0/0",
			m.Failed.Value(), m.Completed.Value(), m.Retries.Value())
	}
}

// TestTimeoutIsPermanent: a job hanging past the timeout yields a
// *TimeoutError after exactly one attempt.
func TestTimeoutIsPermanent(t *testing.T) {
	clock := scriptTimeouts(t)
	started := make(chan struct{}, 8)
	done := make(chan error, 1)
	go func() {
		_, err := Execute(context.Background(),
			FaultPolicy{Timeout: time.Second}, "hung",
			func(ctx context.Context) (int, error) {
				started <- struct{}{}
				<-ctx.Done()
				return 0, ctx.Err()
			})
		done <- err
	}()
	<-started // the attempt is running; now fire its timeout
	clock.fireTimeout(0)
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Execute did not return after timeout fired")
	}
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TimeoutError", err)
	}
	if te.Key != "hung" || te.After != time.Second {
		t.Errorf("TimeoutError = %+v, want key 'hung' after 1s", te)
	}
	if len(started) != 0 {
		t.Errorf("job ran again after a timeout: %d extra attempts", len(started))
	}
}

// TestPanicIsPermanent: a panicking job is attempted once and the panic
// value is preserved in the error.
func TestPanicIsPermanent(t *testing.T) {
	attempts := 0
	_, err := Execute(context.Background(), FaultPolicy{}, "bomb",
		func(context.Context) (int, error) {
			attempts++
			panic("kaboom")
		})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want the panic value", err)
	}
	if attempts != 1 {
		t.Errorf("attempts = %d, want 1", attempts)
	}
}

// TestRunAllContinuesPastFailures: RunAll completes every job, reporting
// per-job errors.
func TestRunAllContinuesPastFailures(t *testing.T) {
	const n = 16
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Key: fmt.Sprintf("job%d", i),
			Run: func(context.Context) (int, error) {
				if i%4 == 0 {
					panic(fmt.Sprintf("injected %d", i))
				}
				return i * 10, nil
			},
		}
	}
	results, errs := RunAll(context.Background(), Options{Workers: 3}, jobs)
	for i := 0; i < n; i++ {
		if i%4 == 0 {
			if errs[i] == nil || !strings.Contains(errs[i].Error(), fmt.Sprintf("injected %d", i)) {
				t.Errorf("errs[%d] = %v, want injected panic", i, errs[i])
			}
			continue
		}
		if errs[i] != nil {
			t.Errorf("errs[%d] = %v, want nil", i, errs[i])
		}
		if results[i] != i*10 {
			t.Errorf("results[%d] = %d, want %d", i, results[i], i*10)
		}
	}
}

// TestPanicErrorIsTyped: a panic surfaces as a *PanicError carrying the job
// key and panic value, so callers can map the failure class (the daemon's
// HTTP status codes) without string matching.
func TestPanicErrorIsTyped(t *testing.T) {
	_, err := Execute(context.Background(), FaultPolicy{}, "bomb",
		func(context.Context) (int, error) { panic("kaboom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *PanicError", err, err)
	}
	if pe.Key != "bomb" || pe.Value != "kaboom" {
		t.Errorf("PanicError = %+v, want key bomb / value kaboom", pe)
	}
}

// TestCooperativeTimeoutWaitsForUnwind: a timed-out attempt's context is
// cancelled and Execute WAITS for fn to unwind before returning the
// *TimeoutError — no goroutine is abandoned, so the worker slot Execute held
// is genuinely free when the error surfaces.
func TestCooperativeTimeoutWaitsForUnwind(t *testing.T) {
	clock := scriptTimeouts(t)
	started := make(chan struct{})
	var unwound atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, err := Execute(context.Background(),
			FaultPolicy{Timeout: time.Second}, "coop",
			func(ctx context.Context) (int, error) {
				close(started)
				<-ctx.Done() // the engine stopping at its next epoch boundary
				unwound.Store(true)
				return 0, ctx.Err()
			})
		done <- err
	}()
	<-started
	clock.fireTimeout(0)
	select {
	case err := <-done:
		var te *TimeoutError
		if !errors.As(err, &te) {
			t.Fatalf("err = %T %v, want *TimeoutError", err, err)
		}
		if te.Key != "coop" || te.After != time.Second {
			t.Errorf("TimeoutError = %+v, want key coop / after 1s", te)
		}
		if !unwound.Load() {
			t.Error("Execute returned before fn unwound; goroutine abandoned")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Execute did not return after timeout fired")
	}
}

// TestCooperativeParentCancel: cancelling the caller's context surfaces
// ctx.Err() (not a TimeoutError), and still waits for fn to unwind.
func TestCooperativeParentCancel(t *testing.T) {
	scriptTimeouts(t)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var unwound atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, err := Execute(ctx,
			FaultPolicy{Timeout: time.Hour}, "coop-cancel",
			func(ctx context.Context) (int, error) {
				close(started)
				<-ctx.Done()
				unwound.Store(true)
				return 0, ctx.Err()
			})
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if !unwound.Load() {
			t.Error("Execute returned before fn unwound; goroutine abandoned")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Execute did not return after parent cancellation")
	}
}

// TestCooperativeSuccess: a cooperative job that completes within its
// timeout passes its value through untouched.
func TestCooperativeSuccess(t *testing.T) {
	scriptTimeouts(t)
	got, err := Execute(context.Background(),
		FaultPolicy{Timeout: time.Second}, "ok",
		func(context.Context) (int, error) { return 7, nil })
	if err != nil || got != 7 {
		t.Fatalf("got %d, %v; want 7, nil", got, err)
	}
}

// TestCooperativeNoGoroutineLeak: a burst of cooperative timeouts leaves no
// goroutines behind — each timed-out attempt unwinds before Execute returns,
// so the count settles back to the baseline.
func TestCooperativeNoGoroutineLeak(t *testing.T) {
	clock := scriptTimeouts(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		started := make(chan struct{})
		ret := make(chan struct{})
		go func() {
			Execute(context.Background(),
				FaultPolicy{Timeout: time.Second}, "leak",
				func(ctx context.Context) (int, error) {
					close(started)
					<-ctx.Done()
					return 0, ctx.Err()
				})
			close(ret)
		}()
		<-started
		clock.fireTimeout(i)
		<-ret
	}
	// Settle: scheduling may lag a moment behind channel operations.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: before=%d after=%d; cooperative timeouts leaked", before, runtime.NumGoroutine())
}
