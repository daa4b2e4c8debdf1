package exp

// This file wires the per-simulation instrumentation: the invariant audit
// and the telemetry files, both read-only with respect to the results.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"streamline/internal/audit"
	"streamline/internal/sim"
	"streamline/internal/telemetry"
)

// attachAudit arms cfg with a fresh auditor when Check is set, labeling it
// with the simulation's label so a violation traces back to its run. The
// auditor is retained for AuditSummary.
func (r *Runner) attachAudit(cfg *sim.Config, label string) {
	if !r.Check {
		return
	}
	a := audit.New(r.Scale.Seed)
	a.Label = label
	cfg.Audit = a
	r.mu.Lock()
	r.auditors = append(r.auditors, a)
	r.mu.Unlock()
}

// attachTelemetry arms cfg with a collector writing to this simulation's own
// file under TelemetryDir, returning a finish function the caller must invoke
// after the run (writes the closing summary record and closes the file). When
// telemetry is off, both are no-ops. File I/O errors are retained for
// TelemetryErr rather than failing the simulation.
func (r *Runner) attachTelemetry(cfg *sim.Config, label string) func() {
	if r.TelemetryDir == "" {
		return func() {}
	}
	f, err := os.Create(filepath.Join(r.TelemetryDir, telemetryFileName(label)))
	if err != nil {
		r.telemetryFail(err)
		return func() {}
	}
	interval := r.SampleInterval
	if interval == 0 {
		interval = r.Scale.Measure / 10
	}
	col := telemetry.New(telemetry.NewSink(f), interval)
	cfg.Telemetry = col
	return func() {
		if err := col.Close(); err != nil {
			r.telemetryFail(err)
		}
		if err := f.Close(); err != nil {
			r.telemetryFail(err)
		}
	}
}

// telemetryFileName maps a simulation's label to a stable filename: every
// character outside [A-Za-z0-9._+-] becomes '_', and distinct simulations
// have distinct labels, so a sweep's file set is deterministic across runs
// and Jobs values.
func telemetryFileName(label string) string {
	s := []byte(label)
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '+', c == '-':
		default:
			s[i] = '_'
		}
	}
	return string(s) + ".jsonl"
}

func (r *Runner) telemetryFail(err error) {
	r.mu.Lock()
	if r.telErr == nil {
		r.telErr = err
	}
	r.mu.Unlock()
}

// TelemetryErr returns the first telemetry I/O error encountered, or nil.
func (r *Runner) TelemetryErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.telErr
}

// AuditSummary writes the findings of every audited simulation to w (full
// reports only for runs with violations, sorted by label so concurrent
// scheduling does not reorder output) and returns the total violation count.
// Zero simulations audited means Check was never set.
func (r *Runner) AuditSummary(w io.Writer) int {
	r.mu.Lock()
	auds := append([]*audit.Auditor(nil), r.auditors...)
	r.mu.Unlock()
	sort.Slice(auds, func(i, j int) bool { return auds[i].Label < auds[j].Label })
	total := 0
	for _, a := range auds {
		total += int(a.Total())
		if a.Total() > 0 {
			a.WriteReport(w)
		}
	}
	fmt.Fprintf(w, "audit: %d simulation(s) audited, %d violation(s)\n", len(auds), total)
	return total
}
