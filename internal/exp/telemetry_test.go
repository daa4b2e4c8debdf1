package exp

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// telemetryScale shrinks the measured window like the golden tests so a
// telemetry sweep stays fast.
func telemetryScale() Scale {
	sc := Small
	sc.Warmup = 40_000
	sc.Measure = 120_000
	return sc
}

// runTelemetrySweep runs a small sweep with per-simulation telemetry
// files under dir, on a 4-worker pool.
func runTelemetrySweep(t *testing.T, dir string) {
	t.Helper()
	r := NewRunner(telemetryScale())
	r.Jobs = 4
	r.TelemetryDir = dir
	r.SampleInterval = 30_000
	arms := []Arm{
		baseArm("stride", ""),
		streamlineArm("streamline", "stride", "", nil),
	}
	r.Sweep(arms, SingleUnits([]string{"sphinx06", "mcf06", "pr"}))
	if err := r.TelemetryErr(); err != nil {
		t.Fatal(err)
	}
}

func listFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// TestTelemetryDirParallelDeterministic runs the same sweep twice on a
// 4-worker pool and requires identical file sets with identical bytes: the
// per-simulation files must not depend on scheduling.
func TestTelemetryDirParallelDeterministic(t *testing.T) {
	d1, d2 := t.TempDir(), t.TempDir()
	runTelemetrySweep(t, d1)
	runTelemetrySweep(t, d2)

	f1, f2 := listFiles(t, d1), listFiles(t, d2)
	if len(f1) != 6 {
		t.Fatalf("sweep wrote %d telemetry files, want 6 (2 arms x 3 workloads): %v", len(f1), f1)
	}
	if len(f1) != len(f2) {
		t.Fatalf("file sets differ: %v vs %v", f1, f2)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("file sets differ: %v vs %v", f1, f2)
		}
		b1, err := os.ReadFile(filepath.Join(d1, f1[i]))
		if err != nil {
			t.Fatal(err)
		}
		b2, err := os.ReadFile(filepath.Join(d2, f2[i]))
		if err != nil {
			t.Fatal(err)
		}
		if string(b1) != string(b2) {
			t.Errorf("%s: contents differ between runs (%d vs %d bytes)", f1[i], len(b1), len(b2))
		}
		if len(b1) == 0 {
			t.Errorf("%s: empty telemetry file", f1[i])
		}
	}
}

// TestDerivedRunnerSharesInstrumentation: a derived runner's simulations are
// audited and write telemetry like the parent's, into the parent's summary,
// under names that keep the same memo key at two scales apart. The two runs
// are concurrent, as a parent's pool and a derived one's can be.
func TestDerivedRunnerSharesInstrumentation(t *testing.T) {
	dir := t.TempDir()
	r := NewRunner(Micro)
	r.Check = true
	r.TelemetryDir = dir
	psc := Micro
	psc.Footprint *= 1.4
	arm := baseArm("stride", "")
	var wg sync.WaitGroup
	for _, rr := range []*Runner{r, r.Derived(psc)} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if runCell(rr, arm, "sphinx06").err != nil {
				t.Error("simulation failed")
			}
		}()
	}
	wg.Wait()
	if err := r.TelemetryErr(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if n := r.AuditSummary(&sb); n != 0 || sb.String() != "audit: 2 simulation(s) audited, 0 violation(s)\n" {
		t.Errorf("audit summary = %q (%d violations), want both runs audited", sb.String(), n)
	}
	files := listFiles(t, dir)
	if len(files) != 2 || files[0] != "base+stride_sphinx06_1_0.000.jsonl" {
		t.Errorf("telemetry files = %v, want the parent's base+stride_sphinx06_1_0.000.jsonl and a derived one", files)
	}
}

// TestTelemetryDirFilenames pins the memo-key sanitization so file names stay
// stable for downstream tooling.
func TestTelemetryDirFilenames(t *testing.T) {
	got := telemetryFileName("base+stride|sphinx06,mcf06|2|0.000")
	want := "base+stride_sphinx06_mcf06_2_0.000.jsonl"
	if got != want {
		t.Errorf("telemetryFileName = %q, want %q", got, want)
	}
}
