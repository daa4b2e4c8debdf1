// Package runner is the experiment harness's concurrent job engine: a
// bounded worker pool that executes independent jobs and hands their results
// back in job order, so callers aggregate deterministically no matter how
// the scheduler interleaved the work.
//
// Every (configuration, workload, mix) simulation in internal/exp is
// independent of every other, which makes an experiment a fan-out of Jobs
// followed by a serial render over the ordered results. The pool guarantees:
//
//   - results[i] always corresponds to jobs[i], regardless of completion
//     order, so output built from the slice is byte-identical to a serial
//     run;
//   - a failing (or panicking) job degrades to a per-job error and every
//     other job still completes — the pool never wedges;
//   - cancelling the caller's context stops feeding new jobs promptly.
//
// Timeouts are not the pool's business: a job that needs one
// calls Execute (see fault.go) itself, as internal/exp's simulations do.
package runner

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"
)

// Job is one independent unit of work producing a T.
type Job[T any] struct {
	// Key identifies the job in progress lines and error messages.
	Key string
	// Run computes the job's result. Long-running jobs should observe ctx,
	// but the pool does not require it: cancellation is also enforced
	// between jobs.
	Run func(ctx context.Context) (T, error)
}

// Options configures one pool invocation.
type Options struct {
	// Workers bounds the number of concurrently running jobs. Zero or
	// negative means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives one line per completed job with the
	// done count, elapsed wall clock, and an ETA for the remainder.
	// Progress lines are serialized; their order follows completion order
	// and is NOT deterministic — keep them off any output that must be.
	Progress io.Writer
}

// RunAll executes jobs on a bounded worker pool and returns their results
// indexed identically to jobs. It degrades instead of aborting: a failing or
// panicking job does not cancel the rest, and every job's outcome is
// reported individually. When ctx ends, the pool stops handing out jobs, and
// every job it did not start keeps a zero result and reports ctx.Err().
func RunAll[T any](ctx context.Context, opts Options, jobs []Job[T]) ([]T, []error) {
	results := make([]T, len(jobs))
	errs := make([]error, len(jobs))
	if len(jobs) == 0 {
		return results, errs
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	// feed serves job indices in order; it closes when all are handed out
	// or the context is cancelled, failing the rest with ctx.Err() first.
	feed := make(chan int)
	go func() {
		defer close(feed)
		for i := range jobs {
			select {
			case feed <- i:
			case <-ctx.Done():
				for j := i; j < len(jobs); j++ {
					errs[j] = ctx.Err()
				}
				return
			}
		}
	}()

	prog := &progress{w: opts.Progress, total: len(jobs), start: time.Now()}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				if ctx.Err() != nil {
					errs[i] = ctx.Err()
					continue
				}
				start := time.Now()
				res, err := protect(ctx, jobs[i].Key, jobs[i].Run)
				if err != nil {
					errs[i] = fmt.Errorf("job %q: %w", jobs[i].Key, err)
					prog.finish(jobs[i].Key+" FAILED", time.Since(start))
					continue
				}
				results[i] = res
				prog.finish(jobs[i].Key, time.Since(start))
			}
		}()
	}
	wg.Wait()
	return results, errs
}

// progress serializes per-job completion reporting.
type progress struct {
	w     io.Writer
	total int
	start time.Time

	mu   sync.Mutex
	done int
}

func (p *progress) finish(key string, took time.Duration) {
	if p.w == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	elapsed := time.Since(p.start)
	eta := time.Duration(0)
	if p.done > 0 {
		eta = elapsed / time.Duration(p.done) * time.Duration(p.total-p.done)
	}
	fmt.Fprintf(p.w, "%d/%d jobs, elapsed %s, eta %s (%s took %s)\n",
		p.done, p.total,
		elapsed.Round(time.Millisecond), eta.Round(time.Millisecond),
		key, took.Round(time.Millisecond))
}
