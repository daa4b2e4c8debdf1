package runner

import (
	"time"

	"streamline/internal/metrics"
)

// Metrics is the runner-level instrument set: job completion accounting and
// the per-attempt latency histogram, shared by every surface that executes
// jobs under the fault policy — the experiment sweep and the serving
// daemon's cache-miss computations alike. Resolve it with NewMetrics and
// hand it to FaultPolicy.Metrics; a nil *Metrics disables everything.
type Metrics struct {
	// Completed counts jobs that succeeded.
	Completed *metrics.Counter
	// Failed counts jobs that failed (error, panic, timeout).
	Failed *metrics.Counter
	// Retries stays registered for existing readers of the exposition;
	// Execute runs every job once, so it reads 0.
	Retries *metrics.Counter
	// Gapped counts failed jobs the sweep layer degraded to GAP cells
	// (incremented by internal/exp's failure log, not by Execute).
	Gapped *metrics.Counter
	// Replayed counts jobs answered from a checkpoint store instead of
	// recomputed (incremented by internal/exp's resume path).
	Replayed *metrics.Counter
	// Attempts observes every attempt's wall clock, successes and failures
	// alike.
	Attempts *metrics.Histogram
}

// NewMetrics resolves (get-or-create) the runner instrument family on reg,
// so independently wired subsystems sharing one registry get one set of
// counters.
func NewMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		Completed: reg.Counter("runner_jobs_completed_total",
			"jobs that succeeded"),
		Failed: reg.Counter("runner_jobs_failed_total",
			"jobs that failed (error, panic, timeout)"),
		Retries: reg.Counter("runner_job_retries_total",
			"always 0: jobs are not retried"),
		Gapped: reg.Counter("runner_jobs_gapped_total",
			"failed jobs degraded to GAP cells by the sweep layer"),
		Replayed: reg.Counter("runner_jobs_replayed_total",
			"jobs answered from a checkpoint store instead of recomputed"),
		Attempts: reg.Histogram("runner_job_attempt_seconds",
			"per-attempt job wall clock", metrics.LatencyBuckets),
	}
}

// The nil-safe hooks Execute calls; a nil receiver is the disabled path.

func (m *Metrics) attempt(d time.Duration) {
	if m != nil {
		m.Attempts.Observe(d.Seconds())
	}
}

func (m *Metrics) completed() {
	if m != nil {
		m.Completed.Inc()
	}
}

func (m *Metrics) failed() {
	if m != nil {
		m.Failed.Inc()
	}
}

// GapInc and ReplayInc are the nil-safe increments for the sweep layer's
// degradation and resume accounting.

// GapInc counts one job degraded to a gap.
func (m *Metrics) GapInc() {
	if m != nil {
		m.Gapped.Inc()
	}
}

// ReplayInc counts one job replayed from a checkpoint store.
func (m *Metrics) ReplayInc() {
	if m != nil {
		m.Replayed.Inc()
	}
}
