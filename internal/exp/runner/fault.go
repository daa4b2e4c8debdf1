package runner

import (
	"context"
	"fmt"
	"time"
)

// This file is the per-job fault policy: panic isolation and a per-attempt
// timeout. Execute is the single entry point: internal/exp's memoized
// simulation path and the daemon's compute path call it directly, so a
// simulation is bounded the same way whether a pool job or a serial
// aggregation loop asked for it. A job runs once: every error a simulation
// returns is deterministic or follows a cancellation, so rerunning it could
// not change the outcome.

// FaultPolicy bounds how a single job may fail.
type FaultPolicy struct {
	// Timeout bounds the attempt's wall clock; zero means unbounded. A
	// timed-out attempt is reported as a *TimeoutError. On timeout (or
	// caller cancellation) Execute cancels the attempt's context and then
	// WAITS for fn to unwind before returning, so no goroutine is ever
	// abandoned and the worker slot it held is genuinely free. fn must
	// therefore observe its context and return promptly after cancellation
	// (the simulation engine stops at its next epoch boundary); a fn that
	// ignores its context turns the timeout into a wait for natural
	// completion. A timeout still yields a *TimeoutError even though fn
	// returned ctx.Err().
	Timeout time.Duration
	// Metrics, when non-nil, receives accounting from Execute: an Attempts
	// observation and a Completed or Failed count per job. See NewMetrics.
	Metrics *Metrics
}

// after starts the timeout timer; tests replace it to fire timeouts by hand.
var after = time.After

// TimeoutError reports an attempt exceeding FaultPolicy.Timeout.
type TimeoutError struct {
	Key   string
	After time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("job %q timed out after %v", e.Key, e.After)
}

// PanicError reports a job attempt that panicked. The panic is converted to
// an error rather than crashing the pool; callers that must map failure
// classes to responses (the serving daemon's status codes) can errors.As
// for it.
type PanicError struct {
	Key   string
	Value any
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Execute runs fn once under pol: panic-isolated and bounded by pol.Timeout.
func Execute[T any](ctx context.Context, pol FaultPolicy, key string, fn func(context.Context) (T, error)) (T, error) {
	start := time.Now()
	res, err := attempt(ctx, pol, key, fn)
	pol.Metrics.attempt(time.Since(start))
	if err != nil {
		pol.Metrics.failed()
		var zero T
		return zero, err
	}
	pol.Metrics.completed()
	return res, nil
}

// attempt runs fn. The deadline and cancellation branches cancel fn's
// context and then drain `done`: the goroutine always unwinds before control
// returns to the caller, so the worker slot is free when Execute reports the
// failure.
func attempt[T any](ctx context.Context, pol FaultPolicy, key string, fn func(context.Context) (T, error)) (T, error) {
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
	case <-after(pol.Timeout):
		cancel()
		<-done
		return zero, &TimeoutError{Key: key, After: pol.Timeout}
	case <-ctx.Done():
		cancel()
		<-done
		return zero, ctx.Err()
	}
}

// protect invokes fn converting a panic into a *PanicError, so a single bad
// job cannot take down the pool or the process.
func protect[T any](ctx context.Context, key string, fn func(context.Context) (T, error)) (res T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Key: key, Value: p}
		}
	}()
	return fn(ctx)
}
