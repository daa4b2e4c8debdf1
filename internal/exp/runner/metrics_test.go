package runner

import (
	"context"
	"errors"
	"testing"
	"time"

	"streamline/internal/metrics"
)

// TestExecuteMetrics: the fault policy's instrument hooks account every
// attempt and every final outcome — a successful job, then a failing one.
func TestExecuteMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	m := NewMetrics(reg)
	pol := FaultPolicy{Metrics: m}

	if _, err := Execute(context.Background(), pol, "ok",
		func(context.Context) (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if got := m.Completed.Value(); got != 1 {
		t.Errorf("completed = %d, want 1", got)
	}
	if got := m.Attempts.Count(); got != 1 {
		t.Errorf("attempt observations = %d, want 1", got)
	}
	if got := m.Failed.Value(); got != 0 {
		t.Errorf("failed = %d, want 0", got)
	}

	_, err := Execute(context.Background(), pol, "doomed",
		func(context.Context) (int, error) {
			return 0, errors.New("broken input")
		})
	if err == nil {
		t.Fatal("failing job did not report an error")
	}
	if got := m.Failed.Value(); got != 1 {
		t.Errorf("failed = %d, want 1", got)
	}
	if got := m.Attempts.Count(); got != 2 {
		t.Errorf("attempt observations = %d, want 2", got)
	}
	if got := m.Retries.Value(); got != 0 {
		t.Errorf("retries = %d, want 0", got)
	}

	// NewMetrics on the same registry resolves the same instruments.
	if NewMetrics(reg).Completed != m.Completed {
		t.Error("NewMetrics did not get-or-create on the shared registry")
	}
}

// TestExecuteNilMetrics: a policy without metrics runs every path without
// panicking — the nil receiver is the disabled implementation.
func TestExecuteNilMetrics(t *testing.T) {
	for _, fail := range []bool{false, true} {
		Execute(context.Background(), FaultPolicy{}, "quiet",
			func(context.Context) (int, error) {
				if fail {
					return 0, errors.New("broken input")
				}
				return 1, nil
			})
	}
	var m *Metrics
	m.attempt(time.Second)
	m.completed()
	m.failed()
	m.GapInc()
	m.ReplayInc()
}
