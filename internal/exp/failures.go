package exp

// This file is the sweep's failure accounting: which jobs failed, and how
// their gaps are marked in the tables.

import (
	"fmt"
	"sort"
	"sync"

	"streamline/internal/exp/runner"
)

// JobFailure records one failed job: its result is a
// zero-valued gap in every table that consumes it.
type JobFailure struct {
	Key string
	Err error
}

// failureLog accumulates failed job keys. It is shared between a runner and
// its Derived runners so a sweep's degradation summary is complete.
type failureLog struct {
	mu      sync.Mutex
	order   []JobFailure
	keys    map[string]bool
	drained int
	// metrics, when set by EnableMetrics, counts each newly gapped key.
	metrics *runner.Metrics
}

func newFailureLog() *failureLog { return &failureLog{keys: make(map[string]bool)} }

func (l *failureLog) add(key string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.keys[key] {
		return
	}
	l.keys[key] = true
	l.order = append(l.order, JobFailure{Key: key, Err: err})
	l.metrics.GapInc()
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
	r.fails.mu.Lock()
	defer r.fails.mu.Unlock()
	return sortedCopy(r.fails.order)
}

// DrainFailures returns the failures recorded since the previous drain,
// sorted by job key. cmd/experiments calls it after each experiment to
// annotate that experiment's tables with its gaps.
func (r *Runner) DrainFailures() []JobFailure {
	r.fails.mu.Lock()
	defer r.fails.mu.Unlock()
	newFails := r.fails.order[r.fails.drained:]
	r.fails.drained = len(r.fails.order)
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
