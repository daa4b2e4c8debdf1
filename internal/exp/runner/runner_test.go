package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOrderedAggregation: results must land at their job's index even when
// jobs complete in reverse order (later jobs finish first).
func TestOrderedAggregation(t *testing.T) {
	const n = 16
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Key: fmt.Sprintf("job%d", i),
			Run: func(context.Context) (int, error) {
				// Earlier jobs sleep longer, so completion order is roughly
				// the reverse of submission order.
				time.Sleep(time.Duration(n-i) * time.Millisecond)
				return i * 10, nil
			},
		}
	}
	got, errs := RunAll(context.Background(), Options{Workers: n}, jobs)
	for i, v := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if v != i*10 {
			t.Errorf("results[%d] = %d, want %d", i, v, i*10)
		}
	}
}

// TestPoolSaturation: the pool must run exactly Workers jobs concurrently
// when enough jobs are available, and never more.
func TestPoolSaturation(t *testing.T) {
	const workers, n = 4, 12
	var cur, peak atomic.Int64
	release := make(chan struct{})
	var once sync.Once
	jobs := make([]Job[struct{}], n)
	for i := range jobs {
		jobs[i] = Job[struct{}]{
			Key: fmt.Sprintf("job%d", i),
			Run: func(context.Context) (struct{}, error) {
				c := cur.Add(1)
				for {
					p := peak.Load()
					if c <= p || peak.CompareAndSwap(p, c) {
						break
					}
				}
				if c == workers {
					// All workers are busy: let everyone proceed.
					once.Do(func() { close(release) })
				}
				<-release
				cur.Add(-1)
				return struct{}{}, nil
			},
		}
	}
	if _, errs := RunAll(context.Background(), Options{Workers: workers}, jobs); errors.Join(errs...) != nil {
		t.Fatal(errors.Join(errs...))
	}
	if p := peak.Load(); p != workers {
		t.Errorf("peak concurrency = %d, want %d", p, workers)
	}
}

// TestErrorPropagation: table-driven failure scenarios. A failing job must
// surface its error at its own index without wedging the pool or disturbing
// any other job's result.
func TestErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name    string
		failAt  map[int]error
		panicAt map[int]bool
		n       int
		workers int
		wantIn  map[int][]string // failing index -> substrings its error must contain
	}{
		{name: "single failure", failAt: map[int]error{3: boom}, n: 8, workers: 2,
			wantIn: map[int][]string{3: {"job3", "boom"}}},
		{name: "multiple failures each reported",
			failAt: map[int]error{2: boom, 5: boom}, n: 8, workers: 1,
			wantIn: map[int][]string{2: {"job2"}, 5: {"job5"}}},
		{name: "panic becomes error", panicAt: map[int]bool{1: true}, n: 4, workers: 2,
			wantIn: map[int][]string{1: {"job1", "panic"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jobs := make([]Job[int], tc.n)
			for i := range jobs {
				i := i
				jobs[i] = Job[int]{
					Key: fmt.Sprintf("job%d", i),
					Run: func(context.Context) (int, error) {
						if tc.panicAt[i] {
							panic("kaboom")
						}
						if err := tc.failAt[i]; err != nil {
							return 0, err
						}
						return i, nil
					},
				}
			}
			done := make(chan struct{})
			var res []int
			var errs []error
			go func() {
				res, errs = RunAll(context.Background(), Options{Workers: tc.workers}, jobs)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("pool wedged: RunAll did not return")
			}
			for i, err := range errs {
				wants, failing := tc.wantIn[i]
				if !failing {
					if err != nil || res[i] != i {
						t.Errorf("job%d: res=%d err=%v, want %d, nil", i, res[i], err, i)
					}
					continue
				}
				if err == nil {
					t.Fatalf("job%d: nil error", i)
				}
				for _, want := range wants {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error %q missing %q", err, want)
					}
				}
			}
		})
	}
}

// TestContextCancellation: cancelling the caller's context stops the run
// promptly; no job fails on its own account, so every reported error is the
// context's.
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	var ran atomic.Int64
	jobs := make([]Job[struct{}], 32)
	for i := range jobs {
		jobs[i] = Job[struct{}]{
			Key: fmt.Sprintf("job%d", i),
			Run: func(c context.Context) (struct{}, error) {
				ran.Add(1)
				select {
				case started <- struct{}{}:
				default:
				}
				<-c.Done() // block until cancelled
				return struct{}{}, nil
			},
		}
	}
	go func() {
		<-started
		cancel()
	}()
	done := make(chan struct{})
	var errs []error
	go func() {
		_, errs = RunAll(ctx, Options{Workers: 2}, jobs)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pool did not honor cancellation")
	}
	for i, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("errs[%d] = %v, want context.Canceled", i, err)
		}
	}
	if n := ran.Load(); n >= 32 {
		t.Errorf("all jobs ran despite cancellation (%d)", n)
	}
}

// TestPreCanceledContext: under a context canceled before the run, no job
// runs, and every one reports the context's error with a zero result —
// also those the pool never hands out.
func TestPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	jobs := make([]Job[int], 100)
	for i := range jobs {
		jobs[i] = Job[int]{Key: fmt.Sprintf("job%d", i), Run: func(context.Context) (int, error) {
			ran.Add(1)
			return 1, nil
		}}
	}
	res, errs := RunAll(ctx, Options{Workers: 2}, jobs)
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) || res[i] != 0 {
			t.Errorf("job %d: result %d, error %v; want 0 and context.Canceled", i, res[i], err)
		}
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d jobs ran under a canceled context", n)
	}
}

// TestEmptyAndDefaults: zero jobs and defaulted worker counts are fine.
func TestEmptyAndDefaults(t *testing.T) {
	res, errs := RunAll[int](context.Background(), Options{}, nil)
	if len(errs) != 0 || len(res) != 0 {
		t.Errorf("empty run: res=%v errs=%v", res, errs)
	}
	// Workers <= 0 defaults to GOMAXPROCS; more workers than jobs is capped.
	got, errs := RunAll(context.Background(), Options{Workers: -1}, []Job[string]{
		{Key: "only", Run: func(context.Context) (string, error) { return "ok", nil }},
	})
	if errs[0] != nil || got[0] != "ok" {
		t.Errorf("default-worker run: got=%v errs=%v", got, errs)
	}
}

// TestProgressReporting: progress lines carry the done count and ETA fields.
func TestProgressReporting(t *testing.T) {
	var mu sync.Mutex
	var b strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return b.Write(p)
	})
	jobs := make([]Job[int], 3)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Key: fmt.Sprintf("job%d", i),
			Run: func(context.Context) (int, error) { return i, nil }}
	}
	if _, errs := RunAll(context.Background(), Options{Workers: 2, Progress: w}, jobs); errors.Join(errs...) != nil {
		t.Fatal(errors.Join(errs...))
	}
	mu.Lock()
	out := b.String()
	mu.Unlock()
	if got := strings.Count(out, "\n"); got != 3 {
		t.Errorf("progress lines = %d, want 3:\n%s", got, out)
	}
	for _, want := range []string{"3/3 jobs", "eta", "elapsed"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
