package exp

// This file is the sweep runner: one memo table that single-flights every
// simulation by label, an index from what a simulation builds to the memo
// entry that simulates it, and one path that builds and runs a simulation.
// sweep.go fans simulations out over the worker pool.

import (
	"context"
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
// exactly once no matter how many goroutines ask for it. A label that misses
// the store looks its arm's identity (see Arm.identity) up in configs: a
// sensitivity arm that restates another arm's configuration under a new name
// takes that arm's result through that arm's memo entry, and still stores it
// under its own key.
type Runner struct {
	// Scale is fixed at construction: NewRunner keeps its fingerprint in
	// scaleFP for the store keys, so nothing assigns it afterwards.
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
	// runner computes; a label that takes another label's result (see
	// compute) runs no simulation and is audited through that label's run,
	// once. The checks are read-only — result tables are byte-identical
	// either way — and AuditSummary reports what they found.
	Check bool
	// TelemetryDir, when non-empty, writes each computed simulation's
	// interval samples and events as JSONL to <dir>/<audit label>.jsonl (the
	// memo key, plus "|sys" for a system-retaining run). Every computed
	// simulation gets its own file and runs at most once, so the output is
	// parallel-safe and its content deterministic for any Jobs value. A label
	// that takes another label's result (see compute) writes no file of its
	// own; which of two such labels writes it is fixed by experiment order,
	// and would depend on scheduling only if one sweep listed both.
	// Instrumentation is read-only — result tables are byte-identical
	// either way.
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
	// mu guards the memo, the configs table and what the sweep's
	// simulations leave behind: the failures, the auditors and the first
	// store and telemetry I/O errors.
	mu   sync.Mutex
	memo map[string]*memoEntry
	// configs maps each configuration to the memo entry of the label that
	// is simulating it or has simulated it: the labels that restate it take
	// that entry's result, and withdraw the entry if it failed (see compute).
	configs map[configKey]*memoEntry
	// failures holds every failed job in recording order, failed their
	// keys, and drained how many of them DrainFailures has returned.
	failures         []JobFailure
	failed           map[string]bool
	drained          int
	auditors         []*audit.Auditor
	storeErr, telErr error

	resumed atomic.Int64
	scaleFP string
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

// configKey is one simulation by what it builds: an arm identity on a unit,
// which the memo key's part after the arm name ("mix|cores|bw[|fp]") names.
type configKey struct {
	arm  armConfig
	unit string
}

// NewRunner returns a runner at the given scale.
func NewRunner(sc Scale) *Runner {
	return &Runner{
		Scale:   sc,
		memo:    make(map[string]*memoEntry),
		configs: make(map[configKey]*memoEntry),
		failed:  make(map[string]bool),
		scaleFP: sc.Fingerprint(),
	}
}

// EnableMetrics resolves the runner_job_* instrument family on reg and wires
// it into this runner's fault policy, which counts Execute-level outcomes,
// gaps and replays. Call it after assigning Fault (assigning Fault later
// would discard the hook).
func (r *Runner) EnableMetrics(reg *metrics.Registry) *runner.Metrics {
	m := runner.NewMetrics(reg)
	r.Fault.Metrics = m
	return m
}

// ResumedJobs returns how many simulations were replayed from the store
// instead of recomputed.
func (r *Runner) ResumedJobs() int { return int(r.resumed.Load()) }

func (r *Runner) storeFail(err error) {
	r.mu.Lock()
	if r.storeErr == nil {
		r.storeErr = err
	}
	r.mu.Unlock()
}

// StoreErr returns the first store I/O error encountered, or nil. A store
// write failure does not fail the simulation that produced the result, but
// the sweep must report it: the checkpoint is incomplete.
func (r *Runner) StoreErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
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

// Unit is a simulation without its arm: a workload mix at a core count,
// bandwidth factor (nonzero scales DRAM bandwidth, Figure 10c) and footprint
// factor (nonzero scales the workloads' footprint: Figure 13c's capacity
// pressure).
type Unit struct {
	Mix   []string
	Cores int
	BW    float64
	FP    float64
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

// key is the sim's memo, job and failure key. Only a nonzero footprint
// factor is spelled in it, as a trailing "|fp<factor>".
func (s Sim) key() string {
	var k string
	if s.Arm.spec.keep {
		k = s.Arm.Name + "|" + s.Mix[0]
	} else {
		k = fmt.Sprintf("%s|%s|%d|%.3f", s.Arm.Name, strings.Join(s.Mix, ","), s.Cores, s.BW)
	}
	if s.FP != 0 {
		k += fmt.Sprintf("|fp%.3f", s.FP)
	}
	return k
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
		e.res, e.sys, e.err = r.computeOrReplay(e)
		if e.err != nil {
			r.fail(e.key, e.err)
		}
	})
}

// computeOrReplay returns the stored result for e's key when the store holds
// a validated record for it, and otherwise computes the simulation (see
// compute) and checkpoints the result under the key. Replay is sound because
// a simulation is a pure function of (scale, arm, mix, cores, bw, fp) and
// the store key hashes all of them.
func (r *Runner) computeOrReplay(e *memoEntry) (sim.Result, *sim.System, error) {
	persist := r.Store != nil && !e.sim.Arm.spec.keep
	var sk string
	if persist {
		sk = r.storeKey(e.key)
		if payload, found := r.Store.Get(sk); found {
			var res sim.Result
			if err := decodeResult(payload, &res); err == nil {
				r.resumed.Add(1)
				r.Fault.Metrics.ReplayInc()
				r.logf("  [cached] %s\n", e.key)
				return res, nil, nil
			}
			// An undecodable payload behaves like a missing record:
			// recompute rather than replay anything questionable.
		}
	}
	res, sys, err := r.compute(e)
	if err != nil {
		return sim.Result{}, nil, err
	}
	if persist {
		if perr := r.Store.Put(sk, e.key, res); perr != nil {
			r.storeFail(perr)
		}
	}
	return res, sys, nil
}

// compute returns the simulation's result, running it under the fault policy
// only when no other label has. A label whose arm restates another's
// configuration on the same unit takes the result of the label registered for
// it in configs, through that label's memo entry: run returns at once if the
// lead is done and waits for it otherwise. A failed lead is never shared: it
// is withdrawn, and the label leads or waits afresh. So fault injection,
// timeouts, panics and cancellations stay with the label they hit, and a
// label fault injection targets always runs its own job.
//
// The wait graph is acyclic because an entry registers only from inside its
// own run, and never waits on another entry after registering.
func (r *Runner) compute(e *memoEntry) (sim.Result, *sim.System, error) {
	s := e.sim
	if id, ok := s.Arm.identity(r.Scale); ok && !r.injects(e.key) {
		ck := configKey{id, e.key[len(s.Arm.Name)+1:]}
		for {
			r.mu.Lock()
			lead, found := r.configs[ck]
			if !found {
				r.configs[ck] = e
			}
			r.mu.Unlock()
			if !found {
				break
			}
			r.run(lead)
			if lead.err == nil {
				r.logf("  [%s] %s x%d = %s\n", s.Arm.Name, strings.Join(s.Mix, ","), s.Cores, lead.sim.Arm.Name)
				return lead.res, nil, nil
			}
			r.mu.Lock()
			if r.configs[ck] == lead {
				delete(r.configs, ck)
			}
			r.mu.Unlock()
		}
	}
	type outcome struct {
		res sim.Result
		sys *sim.System
	}
	o, err := runner.Execute(r.ctx(), r.Fault, e.key,
		func(ctx context.Context) (outcome, error) {
			r.maybeInjectFailure(e.key)
			res, sys, err := r.simulate(ctx, e.key, s)
			return outcome{res, sys}, err
		})
	return o.res, o.sys, err
}

// storeKey derives the content-addressed store key for a simulation memo
// key: the scale fingerprint is mixed in so a store never replays a result
// computed at another scale.
func (r *Runner) storeKey(key string) string {
	return store.Key("simresult", r.scaleFP, key)
}

// injects reports whether fault injection targets the job key.
func (r *Runner) injects(key string) bool {
	return r.FailKey != "" && strings.Contains(key, r.FailKey)
}

// maybeInjectFailure panics when fault injection targets this job — the
// hook behind FailKey and the EXPERIMENTS_FAIL_KEY harness.
func (r *Runner) maybeInjectFailure(key string) {
	if r.injects(key) {
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
	// A canceled sweep builds nothing: no auditor, telemetry file, system,
	// workload traces or log line for a run that cannot start.
	if err := ctx.Err(); err != nil {
		return sim.Result{}, nil, err
	}
	cfg := r.Scale.baseConfig(s.Cores)
	if s.BW > 0 {
		cfg.DRAM = cfg.DRAM.ScaleBandwidth(s.BW)
	}
	s.Arm.apply(&cfg, r.Scale)
	// Audit labels and telemetry file names mark a system-retaining run
	// apart from the plain run of the same arm and workload.
	label := key
	if s.Arm.spec.keep {
		label += "|sys"
	}
	r.attachAudit(&cfg, label)
	finish := r.attachTelemetry(&cfg, label)
	defer finish()
	footprint := r.Scale.Footprint
	if s.FP != 0 {
		footprint *= s.FP
	}
	sys := sim.New(cfg)
	if err := sys.AttachWorkloads(s.Mix, footprint, r.Scale.Seed); err != nil {
		return sim.Result{}, nil, err
	}
	r.logf("  [%s] %s x%d\n", s.Arm.Name, strings.Join(s.Mix, ","), s.Cores)
	res, err := sys.RunCtx(ctx, 0, nil)
	if err != nil || !s.Arm.spec.keep {
		return res, nil, err
	}
	return res, sys, nil
}
