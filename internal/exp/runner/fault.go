package runner

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// This file is the per-job fault policy: panic isolation, per-attempt
// timeout, and bounded retry with exponential backoff. Execute is the single
// entry point: internal/exp's memoized simulation path and the daemon's
// compute path call it directly, so a simulation is bounded the same way
// whether a pool job or a serial aggregation loop asked for it.

// FaultPolicy bounds how a single job may fail.
type FaultPolicy struct {
	// Timeout bounds one attempt's wall clock; zero means unbounded. A
	// timed-out attempt is reported as a permanent *TimeoutError: a job
	// that hung once is assumed to hang again, so it is not retried. On
	// timeout (or caller cancellation) Execute cancels the attempt's
	// context and then WAITS for fn to unwind before returning, so no
	// goroutine is ever abandoned and the worker slot it held is genuinely
	// free. fn must therefore observe its context and return promptly
	// after cancellation (the simulation engine stops at its next epoch
	// boundary); a fn that ignores its context turns the timeout into a
	// wait for natural completion. A timeout still yields a permanent
	// *TimeoutError even though fn returned ctx.Err().
	Timeout time.Duration
	// Retries is how many additional attempts a transiently failing job
	// gets after its first. Permanent failures (panics, timeouts,
	// Permanent-wrapped errors) are never retried.
	Retries int
	// Backoff is the pause before the first retry, doubling per retry.
	Backoff time.Duration
	// Metrics, when non-nil, receives per-attempt accounting from Execute:
	// an Attempts observation per attempt, a Retries count per retry, and a
	// Completed/Failed count per final outcome. See NewMetrics.
	Metrics *Metrics
}

// Clock abstracts time for the fault machinery so tests inject a fake and
// script timeout/backoff behavior deterministically. A nil Clock passed to
// Execute means the real clock.
type Clock interface {
	After(d time.Duration) <-chan time.Time
	// SleepCtx pauses for d or until ctx is done, returning ctx.Err() when
	// the wait was cut short. Backoff pauses go through this so a cancelled
	// run stops immediately instead of finishing a (possibly minutes-long)
	// sleep first.
	SleepCtx(ctx context.Context, d time.Duration) error
}

type realClock struct{}

func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

func (realClock) SleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TimeoutError reports an attempt exceeding FaultPolicy.Timeout.
type TimeoutError struct {
	Key   string
	After time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("job %q timed out after %v", e.Key, e.After)
}

// PanicError reports a job attempt that panicked. The panic is converted to
// a permanent error rather than crashing the pool; callers that must map
// failure classes to responses (the serving daemon's status codes) can
// errors.As for it.
type PanicError struct {
	Key   string
	Value any
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// permanentError marks an error as non-retryable.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Execute will not retry it. A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err}
}

// IsPermanent reports whether err was marked non-retryable (panics,
// timeouts, and Permanent-wrapped errors).
func IsPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// Execute runs fn under pol: the attempt is panic-isolated, bounded by
// pol.Timeout, and retried up to pol.Retries times with doubling backoff on
// transient errors. clock may be nil for real time. The returned error is
// the last attempt's.
func Execute[T any](ctx context.Context, pol FaultPolicy, clock Clock, key string, fn func(context.Context) (T, error)) (T, error) {
	if clock == nil {
		clock = realClock{}
	}
	var zero T
	var err error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			pol.Metrics.retried()
			if serr := clock.SleepCtx(ctx, backoffFor(pol.Backoff, attempt)); serr != nil {
				pol.Metrics.failed()
				return zero, serr
			}
		}
		start := time.Now()
		var res T
		res, err = attemptOnce(ctx, pol, clock, key, fn)
		pol.Metrics.attempt(time.Since(start))
		if err == nil {
			pol.Metrics.completed()
			return res, nil
		}
		if IsPermanent(err) || attempt >= pol.Retries || ctx.Err() != nil {
			pol.Metrics.failed()
			return zero, err
		}
	}
}

// maxBackoff caps one retry pause. Doubling per retry must saturate here:
// a naive Backoff << (attempt-1) wraps time.Duration after ~60 doublings,
// and a negative duration sleeps zero — turning the backoff into a hot
// retry loop exactly when the policy asked for its longest pauses.
const maxBackoff = time.Minute

// backoffFor returns the pause before retry `attempt` (1-based): base
// doubling per retry, saturating at maxBackoff instead of overflowing.
func backoffFor(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	if base >= maxBackoff {
		return maxBackoff
	}
	shift := uint(attempt - 1)
	// base << shift would exceed (or overflow past) the cap.
	if shift > 62 || base > maxBackoff>>shift {
		return maxBackoff
	}
	return base << shift
}

// attemptOnce runs one panic-isolated attempt, bounded by pol.Timeout. The
// deadline and cancellation branches cancel the attempt's context and then
// drain `done`: the goroutine always unwinds before control returns to the
// caller, so the worker slot is free when Execute reports the failure.
func attemptOnce[T any](ctx context.Context, pol FaultPolicy, clock Clock, key string, fn func(context.Context) (T, error)) (T, error) {
	if pol.Timeout <= 0 {
		return protect(ctx, key, fn)
	}
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		res T
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := protect(actx, key, fn)
		done <- outcome{res, err}
	}()
	var zero T
	select {
	case o := <-done:
		return o.res, o.err
	case <-clock.After(pol.Timeout):
		cancel()
		<-done
		return zero, Permanent(&TimeoutError{Key: key, After: pol.Timeout})
	case <-ctx.Done():
		cancel()
		<-done
		return zero, ctx.Err()
	}
}

// protect invokes fn converting a panic into a permanent *PanicError, so a
// single bad job cannot take down the pool or the process.
func protect[T any](ctx context.Context, key string, fn func(context.Context) (T, error)) (res T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = Permanent(&PanicError{Key: key, Value: p})
		}
	}()
	return fn(ctx)
}
