package exp

// This file fans work out over the bounded worker pool: Precompute for
// simulations, ParallelMap for everything else.

import (
	"context"

	"streamline/internal/exp/runner"
	"streamline/internal/workloads"
)

// ---- parallel precomputation ---------------------------------------------

// Singles builds one single-core Sim per (arm, workload) pair.
func Singles(arms []Arm, ws []workloads.Workload) []Sim {
	var out []Sim
	for _, a := range arms {
		for _, w := range ws {
			out = append(out, Sim{Arm: a, Mix: []string{w.Name}, Cores: 1})
		}
	}
	return out
}

// SingleNames is Singles over workload names.
func SingleNames(arms []Arm, names []string) []Sim {
	var out []Sim
	for _, a := range arms {
		for _, n := range names {
			out = append(out, Sim{Arm: a, Mix: []string{n}, Cores: 1})
		}
	}
	return out
}

// keepSystems marks every sim as system-retaining (see Sim.KeepSystem).
func keepSystems(sims []Sim) []Sim {
	for i := range sims {
		sims[i].KeepSystem = true
	}
	return sims
}

// MixSims builds one Sim per (arm, mix) pair at the given core count and
// bandwidth factor.
func MixSims(arms []Arm, mixes []workloads.Mix, cores int, bw float64) []Sim {
	var out []Sim
	for _, a := range arms {
		for _, m := range mixes {
			out = append(out, Sim{Arm: a, Mix: workloads.Names(m.Members), Cores: cores, BW: bw})
		}
	}
	return out
}

// Precompute executes the given simulations on the runner's worker pool and
// memoizes their results. Duplicate and already-memoized sims are skipped.
// After Precompute returns, Run/RunMix/runWithSystem calls for these sims
// are memo hits, so the experiment's serial aggregation loop produces
// byte-identical output regardless of worker count and scheduling. The jobs
// themselves absorb simulation failures (run memoizes a gap), so pool-level
// errors are unexpected — but if one occurs it is recorded as a gap rather
// than aborting the sweep.
func (r *Runner) Precompute(groups ...[]Sim) {
	seen := map[string]bool{}
	var jobs []runner.Job[struct{}]
	for _, sims := range groups {
		for _, s := range sims {
			s := s
			if s.Cores == 0 {
				s.Cores = 1
			}
			key := s.key()
			if seen[key] || r.memoized(key) {
				continue
			}
			seen[key] = true
			jobs = append(jobs, runner.Job[struct{}]{
				Key: key,
				Run: func(context.Context) (struct{}, error) {
					r.run(s)
					return struct{}{}, nil
				},
			})
		}
	}
	if len(jobs) == 0 {
		return
	}
	opts := runner.Options{Workers: r.Jobs, Progress: r.JobProgress}
	_, errs := runner.RunAll(r.ctx(), opts, jobs)
	for i, err := range errs {
		if err != nil {
			r.fails.add(jobs[i].Key, err)
		}
	}
}

func (r *Runner) memoized(key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.memo[key] != nil
}

// ParallelMap runs fn over items on the runner's worker pool and returns the
// results in item order, so aggregation stays deterministic. key labels each
// job in progress output. fn must not touch shared mutable state. A
// panicking fn degrades to a zero-valued result and a recorded JobFailure
// (check r.Gapped(key) when aggregating) instead of aborting the run.
func ParallelMap[T, R any](r *Runner, items []T, key func(T) string, fn func(T) R) []R {
	jobs := make([]runner.Job[R], len(items))
	for i, it := range items {
		it := it
		k := key(it)
		jobs[i] = runner.Job[R]{
			Key: k,
			Run: func(context.Context) (R, error) {
				r.maybeInjectFailure(k)
				return fn(it), nil
			},
		}
	}
	opts := runner.Options{Workers: r.Jobs, Progress: r.JobProgress}
	res, errs := runner.RunAll(r.ctx(), opts, jobs)
	for i, err := range errs {
		if err != nil {
			r.fails.add(jobs[i].Key, err)
		}
	}
	return res
}
