// Package audit is the simulator's opt-in runtime invariant-checking
// subsystem. Components of the memory hierarchy (caches, DRAM, cores,
// metadata stores) expose AuditScan hooks that verify structural invariants
// — occupancy accounting, MSHR leaks, duplicate lines, partition budgets,
// row-buffer legality — against an Auditor threaded through sim.Config.
//
// The design constraints, in order:
//
//  1. Auditing must never perturb the simulation. Every check is read-only,
//     so a run with auditing enabled produces byte-identical statistics to
//     the same run without it.
//  2. Disabled auditing must cost (near) nothing. Call sites guard hooks
//     with a nil check; the few always-on shadow counters (cache occupancy,
//     per-channel transfer counts) are single integer increments on paths
//     that already update several statistics.
//  3. A violation must be reproducible. Each report carries the cycle it was
//     detected at, the component and rule that fired, and the run's seed and
//     label, so `streamsim -seed N ... -check` replays it deterministically.
//
// The experiment harness aggregates one Auditor per simulation
// (`cmd/experiments -check`); the conformance suite in internal/sim asserts
// zero violations for every prefetcher on every workload family.
package audit

import (
	"fmt"
	"io"
)

// Violation is one detected invariant breach.
type Violation struct {
	// Cycle is the core cycle at which the violation was detected (for
	// periodic scans, the scan time, not necessarily the corrupting event).
	Cycle uint64
	// Component names the structure that failed ("L1D", "LLC", "dram",
	// "cpu", "meta", "sim").
	Component string
	// Rule is the short name of the violated invariant.
	Rule string
	// Detail is the human-readable specifics (observed vs expected).
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("cycle %d  %s/%s: %s", v.Cycle, v.Component, v.Rule, v.Detail)
}

// Auditor collects violations for one simulation run. It is not safe for
// concurrent use; give each simulated system its own Auditor (the experiment
// runner does).
type Auditor struct {
	// Seed is the workload seed of the audited run, echoed into reports so
	// a violation can be reproduced.
	Seed int64
	// Label identifies the run (arm, workload mix, core count) in reports.
	Label string
	// OnViolation, when set, observes every violation as it is reported —
	// including ones past the retention limit. The simulator uses it to
	// mirror violations into the telemetry event trace.
	OnViolation func(Violation)

	// limit bounds the retained violations; further ones are counted but
	// dropped, so a systematically broken run cannot exhaust memory.
	limit      int
	violations []Violation
	total      uint64
	scans      uint64
}

// DefaultLimit is the violation retention bound when limit is unset.
const DefaultLimit = 64

// New returns an Auditor for a run with the given seed.
func New(seed int64) *Auditor {
	return &Auditor{Seed: seed, limit: DefaultLimit}
}

// Reportf records one violation. It is safe to call on a nil Auditor (a
// no-op), so deeply nested helpers need not re-check enablement.
func (a *Auditor) Reportf(cycle uint64, component, rule, format string, args ...any) {
	if a == nil {
		return
	}
	a.total++
	v := Violation{
		Cycle:     cycle,
		Component: component,
		Rule:      rule,
		Detail:    fmt.Sprintf(format, args...),
	}
	if a.OnViolation != nil {
		a.OnViolation(v)
	}
	limit := a.limit
	if limit <= 0 {
		limit = DefaultLimit
	}
	if len(a.violations) >= limit {
		return
	}
	a.violations = append(a.violations, v)
}

// CountScan records that one full invariant scan completed, so reports can
// state how much checking a "clean" run actually performed.
func (a *Auditor) CountScan() {
	if a != nil {
		a.scans++
	}
}

// Scans returns the number of completed invariant scans.
func (a *Auditor) Scans() uint64 {
	if a == nil {
		return 0
	}
	return a.scans
}

// Total returns the total violation count, including ones dropped past the retention limit.
func (a *Auditor) Total() uint64 {
	if a == nil {
		return 0
	}
	return a.total
}

// Violations returns the retained violations.
func (a *Auditor) Violations() []Violation {
	if a == nil {
		return nil
	}
	return a.violations
}

// Err returns nil when the run is clean, or an error summarizing the first
// violation and the total count.
func (a *Auditor) Err() error {
	if a == nil || a.total == 0 {
		return nil
	}
	return fmt.Errorf("audit: %d invariant violation(s), first: %s", a.total, a.violations[0])
}

// WriteReport renders the violation report: the reproduction context (label,
// seed, scan count) followed by each retained violation, one per line.
func (a *Auditor) WriteReport(w io.Writer) {
	if a == nil {
		return
	}
	label := a.Label
	if label == "" {
		label = "(unlabeled run)"
	}
	fmt.Fprintf(w, "audit report: %s (seed %d, %d scans, %d violations)\n",
		label, a.Seed, a.scans, a.total)
	for _, v := range a.violations {
		fmt.Fprintf(w, "  %s\n", v)
	}
	if dropped := a.total - uint64(len(a.violations)); dropped > 0 {
		fmt.Fprintf(w, "  ... and %d more (retention limit %d)\n", dropped, len(a.violations))
	}
}
