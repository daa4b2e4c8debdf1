package exp

// This file is the sweep's failure accounting: which jobs failed, and how
// their gaps are marked in the tables.

import (
	"fmt"
	"sort"
)

// JobFailure records one failed job: its result is a
// zero-valued gap in every table that consumes it.
type JobFailure struct {
	Key string
	Err error
}

// fail records a failed job, once per key, and counts its gap.
func (r *Runner) fail(key string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failed[key] {
		return
	}
	r.failed[key] = true
	r.failures = append(r.failures, JobFailure{Key: key, Err: err})
	r.Fault.Metrics.GapInc()
}

// sortedCopy returns fails sorted by key: recording order follows pool
// scheduling and is not deterministic, the sorted view is.
func sortedCopy(fails []JobFailure) []JobFailure {
	out := append([]JobFailure(nil), fails...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Failures returns every failure recorded so far, sorted by job key.
func (r *Runner) Failures() []JobFailure {
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedCopy(r.failures)
}

// DrainFailures returns the failures recorded since the previous drain,
// sorted by job key. cmd/experiments calls it after each experiment to
// annotate that experiment's tables with its gaps.
func (r *Runner) DrainFailures() []JobFailure {
	r.mu.Lock()
	defer r.mu.Unlock()
	newFails := r.failures[r.drained:]
	r.drained = len(r.failures)
	return sortedCopy(newFails)
}

// GapCell is the table cell marking a value whose simulation failed.
const GapCell = "GAP"

// AnnotateGaps appends one deterministic note per failed job to the first
// table, so a degraded sweep's output explicitly marks what is missing.
func AnnotateGaps(tables []Table, fails []JobFailure) {
	if len(tables) == 0 || len(fails) == 0 {
		return
	}
	for _, f := range fails {
		tables[0].Notes = append(tables[0].Notes,
			fmt.Sprintf("GAP: job %q failed: %v", f.Key, f.Err))
	}
}
