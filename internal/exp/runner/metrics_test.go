package runner

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"streamline/internal/metrics"
)

// TestExecuteMetrics: the fault policy's instrument hooks account every
// attempt and every final outcome — a flaky-then-successful job, a
// permanently failing one, and a disabled (nil) metrics set.
func TestExecuteMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	m := NewMetrics(reg)
	pol := FaultPolicy{Retries: 3, Backoff: time.Millisecond, Metrics: m}

	attempts := 0
	_, err := Execute(context.Background(), pol, newFakeClock(), "flaky",
		func(context.Context) (int, error) {
			attempts++
			if attempts == 1 {
				return 0, fmt.Errorf("transient")
			}
			return 1, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Completed.Value(); got != 1 {
		t.Errorf("completed = %d, want 1", got)
	}
	if got := m.Retries.Value(); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
	if got := m.Attempts.Count(); got != 2 {
		t.Errorf("attempt observations = %d, want 2", got)
	}
	if got := m.Failed.Value(); got != 0 {
		t.Errorf("failed = %d, want 0", got)
	}

	_, err = Execute(context.Background(), pol, newFakeClock(), "doomed",
		func(context.Context) (int, error) {
			return 0, Permanent(errors.New("broken input"))
		})
	if err == nil {
		t.Fatal("permanent failure did not report an error")
	}
	if got := m.Failed.Value(); got != 1 {
		t.Errorf("failed = %d, want 1", got)
	}
	if got := m.Attempts.Count(); got != 3 {
		t.Errorf("attempt observations = %d, want 3 (no retry after a permanent error)", got)
	}

	// NewMetrics on the same registry resolves the same instruments.
	if NewMetrics(reg).Completed != m.Completed {
		t.Error("NewMetrics did not get-or-create on the shared registry")
	}
}

// TestExecuteNilMetrics: a policy without metrics runs every path without
// panicking — the nil receiver is the disabled implementation.
func TestExecuteNilMetrics(t *testing.T) {
	attempts := 0
	_, err := Execute(context.Background(),
		FaultPolicy{Retries: 1, Backoff: time.Millisecond}, newFakeClock(), "quiet",
		func(context.Context) (int, error) {
			attempts++
			if attempts == 1 {
				return 0, fmt.Errorf("transient")
			}
			return 1, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	var m *Metrics
	m.attempt(time.Second)
	m.completed()
	m.failed()
	m.retried()
	m.GapInc()
	m.ReplayInc()
}
