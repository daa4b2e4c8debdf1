package exp

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"streamline/internal/exp/runner"
)

// TestSweepTimeoutGapsAndLeaksNothing: a simulation that outlives the fault
// policy's timeout becomes a GAP carrying a *TimeoutError, for the plain and
// the system-retaining run alike, and its goroutine is gone when the sweep
// moves on — the engine stops at its next epoch boundary instead of
// simulating to completion behind a reused pool slot.
func TestSweepTimeoutGapsAndLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()

	sc := Micro
	sc.Measure = 80_000_000 // minutes of simulation: cannot beat the timeout
	r := NewRunner(sc)
	r.Jobs = 2
	r.Fault = runner.FaultPolicy{Timeout: 30 * time.Millisecond}
	base := baseArm("stride", "")
	str := kept(streamlineArm("streamline", "stride", "", nil))
	g := r.Sweep([]Arm{base, str}, SingleUnits([]string{"sphinx06"}))[0]

	if g.Aligned(base)[0] != nil || len(g.Rows(base)) != 0 {
		t.Error("timed-out run was not recorded as a gap")
	}
	if g.Aligned(str)[0] != nil || g.column(str)[0].sys != nil {
		t.Error("timed-out system-retaining run kept a system")
	}
	fails := r.Failures()
	if len(fails) != 2 {
		t.Fatalf("failures = %v, want the two timed-out jobs", fails)
	}
	for _, f := range fails {
		var te *runner.TimeoutError
		if !errors.As(f.Err, &te) {
			t.Errorf("job %q failed with %T %v, want *runner.TimeoutError", f.Key, f.Err, f.Err)
		}
	}
	tables := []Table{{ID: "t"}}
	AnnotateGaps(tables, fails)
	if len(tables[0].Notes) != 2 || !strings.HasPrefix(tables[0].Notes[0], GapCell+": job") {
		t.Errorf("gap notes = %q", tables[0].Notes)
	}

	// Settle: scheduling may lag a moment behind channel operations.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: before=%d after=%d; a timed-out simulation was left running", before, after)
	}
}
