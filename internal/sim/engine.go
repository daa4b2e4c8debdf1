package sim

// This file is the steppable execution engine: the per-record scheduling
// kernel that Run() used to inline. An Engine advances the system in bounded
// batches of trace records (Step), exposes mid-run observation points
// (Progress), and produces the final statistics (Finish). Run() is a thin
// wrapper — one Engine driven to completion — so stepped and one-shot
// execution share a single code path and are bit-identical by construction.
// The engine is also the one mechanism that drives the periodic machinery:
// the audit scan cadence and the telemetry interval sampler both tick from
// its record loop rather than owning loops of their own.

import (
	"context"
	"math"
)

// DefaultEpoch is the record granularity drivers use between cancellation
// checks when stepping an engine (RunCtx, streamd, experiments). It bounds
// cancellation latency to a few microseconds of simulation without adding a
// measurable per-record cost, and — like all epoch sizes — does not perturb
// the simulated statistics.
const DefaultEpoch = 4096

// Progress is a point-in-time view of a run, safe to read between Step
// calls.
type Progress struct {
	// Records is the number of trace records retired across all cores.
	Records uint64
	// Instructions is the fewest instructions any unfinished core has
	// executed; once every core completes it is clamped to Target.
	Instructions uint64
	// WarmupTarget and Target are the per-core warmup and warmup+measure
	// instruction bounds from the Config.
	WarmupTarget uint64
	Target       uint64
	// Done reports whether every core has completed its run.
	Done bool
}

// MeasuredFraction returns how much of the measured window the slowest core
// has completed, in [0, 1].
func (p Progress) MeasuredFraction() float64 {
	meas := p.Target - p.WarmupTarget
	if meas == 0 {
		if p.Done {
			return 1
		}
		return 0
	}
	if p.Instructions <= p.WarmupTarget {
		return 0
	}
	f := float64(p.Instructions-p.WarmupTarget) / float64(meas)
	if f > 1 {
		f = 1
	}
	return f
}

// Engine drives a System in bounded steps. Create one with System.Engine,
// advance it with Step until Done, then call Finish for the Result. An
// engine is single-use and not safe for concurrent use; Progress may be
// read between Step calls (from the same goroutine or with external
// synchronization).
type Engine struct {
	s           *System
	warm, total uint64
	// next is the core being stepped (nil once every core is done);
	// runnerUp caches the second-earliest core so the scheduler only
	// rescans when next stops beating it.
	next, runnerUp *coreState
	records        uint64
	finished       bool
	result         Result
}

// Engine returns a fresh engine positioned at the start of the run.
func (s *System) Engine() *Engine {
	e := &Engine{
		s:     s,
		warm:  s.cfg.WarmupInstructions,
		total: s.cfg.WarmupInstructions + s.cfg.MeasureInstructions,
	}
	e.next, e.runnerUp = s.pickNext()
	return e
}

// Step executes up to n trace records, interleaving cores by current cycle
// time so contention is modeled, and returns how many it executed. A return
// value less than n means the run completed. Step(0) performs only pending
// phase bookkeeping (warmup snapshots, completion checks).
func (e *Engine) Step(n uint64) uint64 {
	s := e.s
	var executed uint64
	for e.next != nil {
		next := e.next
		if !next.measured && next.core.Instructions() >= e.warm {
			next.warmBase = s.snapshotCore(next)
			next.measured = true
			if iv := s.cfg.Telemetry.SampleInterval(); iv > 0 {
				next.lastSample = next.warmBase
				next.nextSample = next.core.Instructions() + iv
			}
		}
		if next.core.Instructions() >= e.total {
			s.telemetryFinish(next)
			next.final = s.snapshotCore(next)
			next.done = true
			e.next, e.runnerUp = s.pickNext()
			continue
		}
		if executed >= n {
			break
		}
		if s.step(next) {
			e.records++
			executed++
		} else {
			s.telemetryFinish(next)
			next.final = s.snapshotCore(next)
			if !next.measured {
				// The trace exhausted before warmup completed, so the
				// measured window never opened: snapshot the baseline at
				// the end too, or collect() would subtract a zero
				// baseline and report the warmup activity as measured.
				next.warmBase = next.final
				next.measured = true
			}
			next.done = true
		}
		if s.cfg.Audit != nil {
			s.auditTick(next)
		}
		if s.cfg.Telemetry != nil {
			s.telemetryTick(next)
		}
		if next.done || !stillEarliest(next, e.runnerUp) {
			e.next, e.runnerUp = s.pickNext()
		}
	}
	return executed
}

// Done reports whether every core has completed its run. Once true, Finish
// returns the result without executing further records.
func (e *Engine) Done() bool { return e.next == nil }

// Progress returns a point-in-time view of the run.
func (e *Engine) Progress() Progress {
	p := Progress{
		Records:      e.records,
		WarmupTarget: e.warm,
		Target:       e.total,
		Done:         e.next == nil,
	}
	found := false
	for _, cs := range e.s.cores {
		if cs.tr == nil || cs.done {
			continue
		}
		if !found || cs.core.Instructions() < p.Instructions {
			p.Instructions = cs.core.Instructions()
		}
		found = true
	}
	if !found {
		p.Instructions = e.total
	} else if p.Instructions > e.total {
		p.Instructions = e.total
	}
	return p
}

// Finish drives any remaining records to completion, runs the final audit
// scan and the result's laws, and returns the measured-phase results. It is
// idempotent.
func (e *Engine) Finish() Result {
	if e.finished {
		return e.result
	}
	for e.next != nil {
		e.Step(math.MaxUint64)
	}
	s := e.s
	e.result = s.collect()
	if a := s.cfg.Audit; a != nil {
		var end uint64
		for _, cs := range s.cores {
			if f := cs.core.Finish(); f > end {
				end = f
			}
		}
		s.auditScan(end)
		e.result.Laws(s.metaDRAMTraffic(), s.cfg.WarmupInstructions == 0, func(rule, format string, args ...any) {
			a.Reportf(end, "sim", rule, format, args...)
		})
	}
	e.finished = true
	return e.result
}

// RunCtx drives a fresh engine to completion in epochs of `epoch` records
// (0 means DefaultEpoch), checking ctx between epochs and invoking observe
// (when non-nil) with fresh Progress after each. On cancellation it stops at
// the next epoch boundary and returns ctx.Err(); the partial run's
// statistics are never collected.
func (s *System) RunCtx(ctx context.Context, epoch uint64, observe func(Progress)) (Result, error) {
	if epoch == 0 {
		epoch = DefaultEpoch
	}
	e := s.Engine()
	for !e.Done() {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		e.Step(epoch)
		if observe != nil {
			observe(e.Progress())
		}
	}
	return e.Finish(), nil
}
