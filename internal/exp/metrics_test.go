package exp

import (
	"testing"

	"streamline/internal/exp/store"
	"streamline/internal/metrics"
)

// TestSweepMetricsAccounting wires EnableMetrics through the three sweep
// paths that feed the runner_job_* instruments: a computed simulation, a
// replay from a checkpoint store, and a pool job degraded to a gap.
func TestSweepMetricsAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a micro-scale simulation")
	}
	sc := Micro
	arm := baseArm("stride", "")
	wl := sc.Workloads[0]

	dir := t.TempDir()
	st, err := store.Create(dir, resumeManifest(sc))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(sc)
	r.Store = st
	m := r.EnableMetrics(metrics.NewRegistry())
	if runCell(r, arm, wl).err != nil {
		t.Fatal("simulation failed")
	}
	if m.Completed.Value() != 1 || m.Attempts.Count() != 1 {
		t.Errorf("completed=%d attempts=%d, want 1/1", m.Completed.Value(), m.Attempts.Count())
	}
	if m.Replayed.Value() != 0 || m.Gapped.Value() != 0 {
		t.Errorf("replayed=%d gapped=%d, want 0/0", m.Replayed.Value(), m.Gapped.Value())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh runner over the reopened store answers the same job from the
	// checkpoint: replayed counts, completed does not.
	st2, err := store.Open(dir, resumeManifest(sc))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	r2 := NewRunner(sc)
	r2.Store = st2
	m2 := r2.EnableMetrics(metrics.NewRegistry())
	if runCell(r2, arm, wl).err != nil {
		t.Fatal("replayed simulation failed")
	}
	if m2.Replayed.Value() != 1 || m2.Completed.Value() != 0 {
		t.Errorf("replayed=%d completed=%d, want 1/0", m2.Replayed.Value(), m2.Completed.Value())
	}

	// An injected pool-job panic degrades to a gap and is counted once.
	r3 := NewRunner(sc)
	r3.FailKey = "doomed"
	m3 := r3.EnableMetrics(metrics.NewRegistry())
	res, ok := ParallelMap(r3, []int{1, 2},
		func(i int) string {
			if i == 1 {
				return "doomed-job"
			}
			return "fine-job"
		},
		func(i int) int { return i * 2 })
	if m3.Gapped.Value() != 1 {
		t.Errorf("gapped = %d, want 1", m3.Gapped.Value())
	}
	if res[1] != 4 {
		t.Errorf("unaffected job returned %d, want 4", res[1])
	}
	if ok[0] || !ok[1] {
		t.Errorf("ok = %v, want only the doomed job reported failed", ok)
	}
	if fails := r3.Failures(); len(fails) != 1 || fails[0].Key != "doomed-job" {
		t.Errorf("failure log = %v, want the gapped key", fails)
	}
}
