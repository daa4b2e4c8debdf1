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
)

// fakeClock scripts time for the fault machinery: SleepCtx records the
// requested backoff durations (returning immediately, or ctx.Err() when the
// context is already cancelled), and After returns a channel the test fires
// on demand — so timeout behavior is exercised without real waiting.
type fakeClock struct {
	mu     sync.Mutex
	sleeps []time.Duration
	afters []chan time.Time
	armed  chan struct{} // one token per After call; buffered past any test's attempt count so After never blocks
}

func newFakeClock() *fakeClock { return &fakeClock{armed: make(chan struct{}, 64)} }

func (c *fakeClock) SleepCtx(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	c.sleeps = append(c.sleeps, d)
	c.mu.Unlock()
	return ctx.Err()
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
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
func (c *fakeClock) fireTimeout(i int) {
	<-c.armed
	c.mu.Lock()
	ch := c.afters[i]
	c.mu.Unlock()
	ch <- time.Time{}
}

func (c *fakeClock) sleepLog() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.sleeps...)
}

// TestRetryFailNTimesThenSucceed: a job failing transiently N times succeeds
// within N retries, and each retry is preceded by a doubling backoff.
func TestRetryFailNTimesThenSucceed(t *testing.T) {
	clock := newFakeClock()
	attempts := 0
	got, err := Execute(context.Background(),
		FaultPolicy{Retries: 3, Backoff: 10 * time.Millisecond}, clock, "flaky",
		func(context.Context) (int, error) {
			attempts++
			if attempts <= 2 {
				return 0, fmt.Errorf("transient %d", attempts)
			}
			return 42, nil
		})
	if err != nil || got != 42 {
		t.Fatalf("got %d, %v; want 42, nil", got, err)
	}
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3", attempts)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	sleeps := clock.sleepLog()
	if len(sleeps) != len(want) {
		t.Fatalf("backoffs = %v, want %v", sleeps, want)
	}
	for i := range want {
		if sleeps[i] != want[i] {
			t.Errorf("backoff[%d] = %v, want %v (doubling)", i, sleeps[i], want[i])
		}
	}
}

// TestBackoffSleepRespectsCancellation: cancelling the context while a
// retry backoff is in progress aborts the sleep immediately. Regression:
// the sleep used to be unconditional, so a cancelled sweep still sat out
// the full (exponentially growing) pause before noticing.
func TestBackoffSleepRespectsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	failed := make(chan struct{}, 4)
	done := make(chan error, 1)
	go func() {
		// Real clock on purpose: the hour-long backoff is the trap. The
		// fix returns as soon as cancel fires; the old code sleeps it out.
		_, err := Execute(ctx,
			FaultPolicy{Retries: 2, Backoff: time.Hour}, nil, "slow-retry",
			func(context.Context) (int, error) {
				failed <- struct{}{}
				return 0, errors.New("transient")
			})
		done <- err
	}()
	<-failed // first attempt has failed; Execute is entering the backoff
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Execute still sleeping 5s after cancellation")
	}
	if len(failed) != 0 {
		t.Errorf("job was retried %d time(s) after cancellation", len(failed))
	}
}

// TestBackoffCapsDoubling: the doubling backoff saturates at maxBackoff
// instead of overflowing time.Duration. Regression: backoff << (attempt-1)
// wraps negative after ~60 doublings, and a negative sleep returns
// immediately — a hot retry loop precisely when the longest pauses were
// requested.
func TestBackoffCapsDoubling(t *testing.T) {
	cases := []struct {
		base    time.Duration
		attempt int
		want    time.Duration
	}{
		{10 * time.Millisecond, 1, 10 * time.Millisecond},
		{10 * time.Millisecond, 2, 20 * time.Millisecond},
		{30 * time.Second, 2, time.Minute},  // doubles exactly to the cap
		{30 * time.Second, 3, time.Minute},  // saturates
		{time.Second, 40, time.Minute},      // would be ~35k years unchecked
		{time.Second, 64, time.Minute},      // shift >= word width
		{time.Nanosecond, 100, time.Minute}, // extreme shift, still saturates
		{5 * time.Minute, 1, time.Minute},   // base alone above the cap
		{0, 3, 0},
	}
	for _, c := range cases {
		got := backoffFor(c.base, c.attempt)
		if got != c.want {
			t.Errorf("backoffFor(%v, %d) = %v, want %v", c.base, c.attempt, got, c.want)
		}
		if got < 0 {
			t.Errorf("backoffFor(%v, %d) went negative: %v", c.base, c.attempt, got)
		}
	}

	// End to end: the recorded pauses saturate rather than overflow.
	clock := newFakeClock()
	_, err := Execute(context.Background(),
		FaultPolicy{Retries: 3, Backoff: 30 * time.Second}, clock, "capped",
		func(context.Context) (int, error) { return 0, errors.New("transient") })
	if err == nil {
		t.Fatal("want final transient error")
	}
	want := []time.Duration{30 * time.Second, time.Minute, time.Minute}
	sleeps := clock.sleepLog()
	if len(sleeps) != len(want) {
		t.Fatalf("backoffs = %v, want %v", sleeps, want)
	}
	for i := range want {
		if sleeps[i] != want[i] {
			t.Errorf("backoff[%d] = %v, want %v (saturating)", i, sleeps[i], want[i])
		}
	}
}

// TestRetryNeverSucceeds: a persistently failing job is attempted exactly
// 1+Retries times and reports the final error.
func TestRetryNeverSucceeds(t *testing.T) {
	clock := newFakeClock()
	attempts := 0
	_, err := Execute(context.Background(),
		FaultPolicy{Retries: 2, Backoff: time.Millisecond}, clock, "doomed",
		func(context.Context) (int, error) {
			attempts++
			return 0, fmt.Errorf("failure %d", attempts)
		})
	if err == nil || !strings.Contains(err.Error(), "failure 3") {
		t.Fatalf("err = %v, want the final attempt's error", err)
	}
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3 (1 + 2 retries)", attempts)
	}
}

// TestTimeoutIsPermanent: a job hanging past the timeout yields a
// *TimeoutError and is NOT retried — a hang is assumed to repeat.
func TestTimeoutIsPermanent(t *testing.T) {
	clock := newFakeClock()
	started := make(chan struct{}, 8)
	done := make(chan error, 1)
	go func() {
		_, err := Execute(context.Background(),
			FaultPolicy{Timeout: time.Second, Retries: 5, Backoff: time.Millisecond},
			clock, "hung",
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
	if !IsPermanent(err) {
		t.Error("timeout should be permanent")
	}
	if len(started) != 0 {
		t.Errorf("job was retried after a timeout: %d extra attempts", len(started))
	}
	if sleeps := clock.sleepLog(); len(sleeps) != 0 {
		t.Errorf("backoff slept %v despite permanent failure", sleeps)
	}
}

// TestPanicIsPermanent: a panicking job is attempted once, never retried,
// and the panic value is preserved in the error.
func TestPanicIsPermanent(t *testing.T) {
	clock := newFakeClock()
	attempts := 0
	_, err := Execute(context.Background(),
		FaultPolicy{Retries: 4, Backoff: time.Millisecond}, clock, "bomb",
		func(context.Context) (int, error) {
			attempts++
			panic("kaboom")
		})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want the panic value", err)
	}
	if !IsPermanent(err) {
		t.Error("panic should be permanent")
	}
	if attempts != 1 {
		t.Errorf("attempts = %d, want 1 (no retry after panic)", attempts)
	}
}

// TestPermanentWrapping: Permanent-marked errors stop the retry loop, and
// Permanent(nil) stays nil.
func TestPermanentWrapping(t *testing.T) {
	if Permanent(nil) != nil {
		t.Error("Permanent(nil) != nil")
	}
	boom := errors.New("boom")
	if !IsPermanent(Permanent(boom)) {
		t.Error("Permanent(err) not detected")
	}
	if IsPermanent(boom) {
		t.Error("plain error detected as permanent")
	}
	if !errors.Is(Permanent(boom), boom) {
		t.Error("Permanent does not unwrap to the original error")
	}
	attempts := 0
	_, err := Execute(context.Background(),
		FaultPolicy{Retries: 3}, newFakeClock(), "perm",
		func(context.Context) (int, error) {
			attempts++
			return 0, Permanent(boom)
		})
	if !errors.Is(err, boom) || attempts != 1 {
		t.Errorf("err=%v attempts=%d; want boom after exactly 1 attempt", err, attempts)
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
	_, err := Execute(context.Background(), FaultPolicy{}, nil, "bomb",
		func(context.Context) (int, error) { panic("kaboom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *PanicError", err, err)
	}
	if pe.Key != "bomb" || pe.Value != "kaboom" {
		t.Errorf("PanicError = %+v, want key bomb / value kaboom", pe)
	}
	if !IsPermanent(err) {
		t.Error("panic error should be permanent")
	}
}

// TestCooperativeTimeoutWaitsForUnwind: a timed-out attempt's context is
// cancelled and Execute WAITS for fn to unwind before
// returning the permanent *TimeoutError — no goroutine is abandoned, so the
// worker slot Execute held is genuinely free when the error surfaces.
func TestCooperativeTimeoutWaitsForUnwind(t *testing.T) {
	clock := newFakeClock()
	started := make(chan struct{})
	var unwound atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, err := Execute(context.Background(),
			FaultPolicy{Timeout: time.Second}, clock, "coop",
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
		if !IsPermanent(err) {
			t.Error("cooperative timeout should be permanent (never retried)")
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
	clock := newFakeClock()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var unwound atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, err := Execute(ctx,
			FaultPolicy{Timeout: time.Hour}, clock, "coop-cancel",
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
	got, err := Execute(context.Background(),
		FaultPolicy{Timeout: time.Second}, newFakeClock(), "ok",
		func(context.Context) (int, error) { return 7, nil })
	if err != nil || got != 7 {
		t.Fatalf("got %d, %v; want 7, nil", got, err)
	}
}

// TestCooperativeNoGoroutineLeak: a burst of cooperative timeouts leaves no
// goroutines behind — each timed-out attempt unwinds before Execute returns,
// so the count settles back to the baseline.
func TestCooperativeNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		clock := newFakeClock()
		started := make(chan struct{})
		ret := make(chan struct{})
		go func() {
			Execute(context.Background(),
				FaultPolicy{Timeout: time.Second}, clock, "leak",
				func(ctx context.Context) (int, error) {
					close(started)
					<-ctx.Done()
					return 0, ctx.Err()
				})
			close(ret)
		}()
		<-started
		clock.fireTimeout(0)
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
