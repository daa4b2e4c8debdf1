package exp

// This file is the sweep runner: one memo table that single-flights every
// simulation and one path that builds and runs a simulation. sweep.go fans
// simulations out over the worker pool.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"streamline/internal/audit"
	"streamline/internal/exp/runner"
	"streamline/internal/exp/store"
	"streamline/internal/metrics"
	"streamline/internal/sim"
)

// Runner executes arms with memoization so shared baselines are simulated
// once per harness invocation. Sweep is safe for concurrent use: each
// simulation is single-flighted by its memo key, so a result is computed
// exactly once no matter how many goroutines ask for it.
type Runner struct {
	Scale    Scale
	Progress io.Writer
	// Ctx, when non-nil, cancels the sweep cooperatively: in-flight
	// simulations stop at their next engine epoch boundary (a few thousand
	// trace records), pending pool jobs fail fast with ctx.Err(), and
	// every aborted job is recorded as a failure. Results already
	// checkpointed to Store stay durable. Nil means background (never
	// canceled).
	Ctx context.Context
	// Jobs bounds the worker pool used by Sweep and ParallelMap.
	// Zero or negative means GOMAXPROCS; 1 reproduces the serial harness.
	Jobs int
	// JobProgress, when non-nil, receives per-job completion lines (done
	// count, elapsed, ETA) from the worker pool. Point it at stderr: its
	// line order follows completion order and is not deterministic.
	JobProgress io.Writer
	// Check enables the runtime invariant audit on every simulation the
	// runner performs. The checks are read-only — result tables are
	// byte-identical either way — and AuditSummary reports what they found.
	Check bool
	// TelemetryDir, when non-empty, writes each simulation's interval
	// samples and events as JSONL to <dir>/<memo key>.jsonl. Every
	// simulation gets its own file and runs at most once (single-flighted
	// by memo key), so the output is parallel-safe and its content
	// deterministic for any Jobs value. Instrumentation is read-only —
	// result tables are byte-identical either way.
	TelemetryDir string
	// SampleInterval is the measured instructions between telemetry samples
	// per core; zero means a tenth of the scale's measured window.
	SampleInterval uint64
	// Store, when non-nil, persists every completed simulation result and
	// replays validated cached results instead of recomputing (the
	// -checkpoint/-resume machinery). Replayed results are re-validated
	// against their content hash; simulations are deterministic, so a
	// resumed sweep's tables are byte-identical to an uninterrupted run.
	Store *store.Store
	// Fault bounds each simulation job: a timeout and panic isolation.
	// With the zero value a panicking arm still degrades to a recorded
	// gap instead of aborting the sweep (see Failures).
	Fault runner.FaultPolicy
	// FailKey, when non-empty, makes any job whose key contains it panic
	// at the start of its computation — the fault-injection hook behind
	// the EXPERIMENTS_FAIL_KEY harness and the degradation tests.
	FailKey string

	logMu sync.Mutex
	mu    sync.Mutex
	memo  map[string]*memoEntry

	audMu    sync.Mutex
	auditors []*audit.Auditor

	telMu  sync.Mutex
	telErr error

	fails    *failureLog
	resumed  atomic.Int64
	storeMu  sync.Mutex
	storeErr error
}

// memoEntry single-flights one simulation. A failed job memoizes its error:
// res stays the zero Result (the gap value), sys stays nil, and err records
// why. sys is set only for a system-retaining arm, and must then be treated
// as read-only.
type memoEntry struct {
	key  string
	sim  Sim
	once sync.Once
	res  sim.Result
	sys  *sim.System
	err  error
}

// NewRunner returns a runner at the given scale.
func NewRunner(sc Scale) *Runner {
	return &Runner{
		Scale: sc,
		memo:  make(map[string]*memoEntry),
		fails: newFailureLog(),
	}
}

// Derived returns a runner at a modified scale that shares this runner's
// pool sizing, progress sinks, fault policy, result store, and failure log
// — for studies that rerun arms under a perturbed scale (fig13c's
// capacity-pressured runner). Store keys embed the scale fingerprint, so
// the two runners' records never collide.
func (r *Runner) Derived(sc Scale) *Runner {
	nr := NewRunner(sc)
	nr.Progress = r.Progress
	nr.Ctx = r.Ctx
	nr.Jobs = r.Jobs
	nr.JobProgress = r.JobProgress
	nr.Store = r.Store
	nr.Fault = r.Fault
	nr.FailKey = r.FailKey
	nr.fails = r.fails
	return nr
}

// EnableMetrics resolves the runner_job_* instrument family on reg and wires
// it into this runner: Execute-level accounting via the fault policy, gap
// counting via the failure log, and replay counting via the resume path.
// Call it after assigning Fault (assigning Fault later would discard the
// hook). Derived runners inherit the wiring — the fault policy is copied and
// the failure log is shared — so a sweep's counters are complete.
func (r *Runner) EnableMetrics(reg *metrics.Registry) *runner.Metrics {
	m := runner.NewMetrics(reg)
	r.Fault.Metrics = m
	r.fails.mu.Lock()
	r.fails.metrics = m
	r.fails.mu.Unlock()
	return m
}

// ResumedJobs returns how many simulations were replayed from the store
// instead of recomputed.
func (r *Runner) ResumedJobs() int { return int(r.resumed.Load()) }

func (r *Runner) storeFail(err error) {
	r.storeMu.Lock()
	if r.storeErr == nil {
		r.storeErr = err
	}
	r.storeMu.Unlock()
}

// StoreErr returns the first store I/O error encountered, or nil. A store
// write failure does not fail the simulation that produced the result, but
// the sweep must report it: the checkpoint is incomplete.
func (r *Runner) StoreErr() error {
	r.storeMu.Lock()
	defer r.storeMu.Unlock()
	return r.storeErr
}

func (r *Runner) logf(format string, args ...any) {
	if r.Progress != nil {
		r.logMu.Lock()
		defer r.logMu.Unlock()
		fmt.Fprintf(r.Progress, format, args...)
	}
}

// ctx returns the runner's cancellation context, defaulting to background.
func (r *Runner) ctx() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

// ---- simulations -----------------------------------------------------------

// Unit is a simulation without its arm: a workload mix at a core count and
// bandwidth factor (nonzero scales DRAM bandwidth, Figure 10c).
type Unit struct {
	Mix   []string
	Cores int
	BW    float64
}

// Sim identifies one simulation job: an arm applied to a unit. It is the
// unit of parallelism Sweep fans out over. A system-retaining arm's sims are
// single-workload, single-core, and are never replayed from the store — a
// *sim.System cannot be serialized — but they are deterministic, so
// recomputing them on resume still yields byte-identical output.
type Sim struct {
	Arm Arm
	Unit
}

// key is the sim's memo, job and failure key.
func (s Sim) key() string {
	if s.Arm.keepSystem {
		return s.Arm.Name + "|" + s.Mix[0]
	}
	return fmt.Sprintf("%s|%s|%d|%.3f", s.Arm.Name, strings.Join(s.Mix, ","), s.Cores, s.BW)
}

// entry returns the sim's memo entry, and whether this call created it: the
// creator owes the entry a run.
func (r *Runner) entry(s Sim) (e *memoEntry, fresh bool) {
	key := s.key()
	r.mu.Lock()
	defer r.mu.Unlock()
	e, found := r.memo[key]
	if !found {
		e = &memoEntry{key: key, sim: s}
		r.memo[key] = e
	}
	return e, !found
}

// run computes the entry's simulation unless someone has, or waits for
// whoever is. A failed simulation (error, panic, timeout) memoizes its
// error and records a JobFailure.
func (r *Runner) run(e *memoEntry) {
	e.once.Do(func() {
		e.res, e.sys, e.err = r.computeOrReplay(e.key, e.sim)
		if e.err != nil {
			r.fails.add(e.key, e.err)
		}
	})
}

// computeOrReplay returns the stored result for key when the store holds a
// validated record for it, and otherwise computes the simulation under the
// fault policy and checkpoints the result. Replay is sound because a
// simulation is a pure function of (scale, arm, mix, cores, bwFactor) and
// the store key hashes all of them.
func (r *Runner) computeOrReplay(key string, s Sim) (sim.Result, *sim.System, error) {
	persist := r.Store != nil && !s.Arm.keepSystem
	var sk string
	if persist {
		sk = r.storeKey(key)
		if payload, found := r.Store.Get(sk); found {
			var res sim.Result
			if err := json.Unmarshal(payload, &res); err == nil {
				r.resumed.Add(1)
				r.Fault.Metrics.ReplayInc()
				r.logf("  [cached] %s\n", key)
				return res, nil, nil
			}
			// An undecodable payload behaves like a missing record:
			// recompute rather than replay anything questionable.
		}
	}
	type outcome struct {
		res sim.Result
		sys *sim.System
	}
	o, err := runner.Execute(r.ctx(), r.Fault, key,
		func(ctx context.Context) (outcome, error) {
			r.maybeInjectFailure(key)
			res, sys, err := r.simulate(ctx, key, s)
			return outcome{res, sys}, err
		})
	if err != nil {
		return sim.Result{}, nil, err
	}
	if persist {
		if perr := r.Store.Put(sk, key, o.res); perr != nil {
			r.storeFail(perr)
		}
	}
	return o.res, o.sys, nil
}

// storeKey derives the content-addressed store key for a simulation memo
// key: the scale fingerprint is mixed in so runners at different scales
// (fig13c's pressured Derived runner) can share one store without collisions.
func (r *Runner) storeKey(key string) string {
	return store.Key("simresult", r.Scale.Fingerprint(), key)
}

// maybeInjectFailure panics when fault injection targets this job — the
// hook behind FailKey and the EXPERIMENTS_FAIL_KEY harness.
func (r *Runner) maybeInjectFailure(key string) {
	if r.FailKey != "" && strings.Contains(key, r.FailKey) {
		panic(fmt.Sprintf("injected failure for job %q (fail key %q)", key, r.FailKey))
	}
}

// simulate builds a fresh system and runs the simulation, observing ctx
// between engine epochs so a canceled sweep releases its workers promptly.
// The system is returned only for a sim that asked to keep it.
// Everything it touches is job-private: the config is a value copy of the
// scale, the system and its traces are constructed here, and the workload
// registry is only read — which is what makes concurrent runs race-free.
func (r *Runner) simulate(ctx context.Context, key string, s Sim) (sim.Result, *sim.System, error) {
	cfg := r.Scale.baseConfig(s.Cores)
	if s.BW > 0 {
		cfg.DRAM = cfg.DRAM.ScaleBandwidth(s.BW)
	}
	s.Arm.Apply(&cfg, r.Scale)
	// Audit labels and telemetry file names mark a system-retaining run
	// apart from the plain run of the same arm and workload.
	label := key
	if s.Arm.keepSystem {
		label += "|sys"
	}
	r.attachAudit(&cfg, label)
	finish := r.attachTelemetry(&cfg, label)
	defer finish()
	sys := sim.New(cfg)
	if err := sys.AttachWorkloads(s.Mix, r.Scale.Footprint, r.Scale.Seed); err != nil {
		return sim.Result{}, nil, err
	}
	r.logf("  [%s] %s x%d\n", s.Arm.Name, strings.Join(s.Mix, ","), s.Cores)
	res, err := sys.RunCtx(ctx, 0, nil)
	if err != nil || !s.Arm.keepSystem {
		return res, nil, err
	}
	return res, sys, nil
}
