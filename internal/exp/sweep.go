package exp

// This file is the one way an experiment asks for work: Sweep for
// simulations (arms x units in, rows of results and gaps out), ParallelMap
// for everything else. Both fan out over the bounded worker pool.

import (
	"context"
	"fmt"

	"streamline/internal/exp/runner"
	"streamline/internal/workloads"
)

// SingleUnits returns one single-core unit per workload name.
func SingleUnits(names []string) []Unit {
	out := make([]Unit, len(names))
	for i, n := range names {
		out[i] = Unit{Mix: []string{n}, Cores: 1}
	}
	return out
}

// MixUnits returns one unit per mix at the given core count and bandwidth
// factor.
func MixUnits(mixes []workloads.Mix, cores int, bw float64) []Unit {
	out := make([]Unit, len(mixes))
	for i, m := range mixes {
		out[i] = Unit{Mix: workloads.Names(m.Members), Cores: cores, BW: bw}
	}
	return out
}

// Sweep runs every arm on every unit of every group and returns one grid of
// outcomes per group. An experiment names its simulations here, once: each
// cell is keyed once, the cells nobody has computed yet go to the worker pool
// in a single invocation (all groups together, so no group waits on
// another), and a cell named twice — in one group, across groups, or by an
// earlier sweep — is simulated once. Results are read back through Grid.Rows
// and Grid.Aligned in unit order, so rendered output is byte-identical for
// any worker count and scheduling. A failed cell is a gap in its grid and a
// recorded JobFailure, never an aborted sweep: the jobs absorb simulation
// failures themselves, and a pool-level error (a canceled context) is
// recorded the same way.
func (r *Runner) Sweep(arms []Arm, groups ...[]Unit) []Grid {
	grids := make([]Grid, len(groups))
	var jobs []runner.Job[struct{}]
	for gi, units := range groups {
		g := Grid{arms: arms, units: len(units), cells: make(Row, 0, len(arms)*len(units))}
		for _, a := range arms {
			for _, u := range units {
				e, fresh := r.entry(Sim{a, u})
				g.cells = append(g.cells, e)
				if fresh {
					jobs = append(jobs, runner.Job[struct{}]{Key: e.key,
						Run: func(context.Context) (struct{}, error) {
							r.run(e)
							return struct{}{}, nil
						}})
				}
			}
		}
		grids[gi] = g
	}
	runPool(r, jobs)
	for _, g := range grids {
		for _, e := range g.cells {
			// A no-op for a cell that ran; a cell a concurrent sweep owns is
			// waited for, and one the pool never started (canceled context)
			// fails fast into its gap.
			r.run(e)
		}
	}
	return grids
}

// runPool executes jobs on the runner's worker pool, recording pool-level
// errors as job failures.
func runPool[R any](r *Runner, jobs []runner.Job[R]) ([]R, []error) {
	opts := runner.Options{Workers: r.Jobs, Progress: r.JobProgress}
	res, errs := runner.RunAll(r.ctx(), opts, jobs)
	for i, err := range errs {
		if err != nil {
			r.fail(jobs[i].Key, err)
		}
	}
	return res, errs
}

// Grid holds one group's outcomes by (arm, unit).
type Grid struct {
	arms  []Arm
	units int
	cells Row // arm-major
}

// Row is one unit's outcomes for the arms a caller listed, in that order:
// res is each one's result and sys its retained system (kept arms only).
type Row []*memoEntry

// Aligned returns one row per unit of the group, in unit order, for the
// listed arms — nil, a gap, for a unit on which any of them failed. Listing
// an arm the sweep did not run is a bug and panics.
func (g Grid) Aligned(arms ...Arm) []Row {
	rows := make([]Row, g.units)
	flat := make(Row, g.units*len(arms))
	for u := range rows {
		rows[u] = flat[u*len(arms) : (u+1)*len(arms) : (u+1)*len(arms)]
	}
	for i, a := range arms {
		col := g.column(a)
		for u, e := range col {
			if e.err != nil {
				rows[u] = nil
			} else if rows[u] != nil {
				rows[u][i] = e
			}
		}
	}
	return rows
}

// Rows is Aligned without the gaps: the rows of the units on which every
// listed arm ran, which is what a mean over units is taken across.
func (g Grid) Rows(arms ...Arm) []Row {
	rows := g.Aligned(arms...)
	n := 0
	for _, row := range rows {
		if row != nil {
			rows[n] = row
			n++
		}
	}
	return rows[:n]
}

// column returns the arm's cells in unit order.
func (g Grid) column(a Arm) Row {
	for i := range g.arms {
		if g.arms[i].Name == a.Name {
			return g.cells[i*g.units : (i+1)*g.units]
		}
	}
	panic(fmt.Sprintf("exp: arm %q read from a sweep that did not run it", a.Name))
}

// ParallelMap runs fn over items on the runner's worker pool and returns the
// results in item order, so aggregation stays deterministic, with each
// item's success beside it. key labels each job in progress output. fn must
// not touch shared mutable state. A panicking fn degrades to a zero-valued
// result, ok false, and a recorded JobFailure instead of aborting the run.
func ParallelMap[T, R any](r *Runner, items []T, key func(T) string, fn func(T) R) (res []R, ok []bool) {
	jobs := make([]runner.Job[R], len(items))
	for i, it := range items {
		k := key(it)
		jobs[i] = runner.Job[R]{
			Key: k,
			Run: func(context.Context) (R, error) {
				r.maybeInjectFailure(k)
				return fn(it), nil
			},
		}
	}
	res, errs := runPool(r, jobs)
	ok = make([]bool, len(errs))
	for i, err := range errs {
		ok[i] = err == nil
	}
	return res, ok
}
