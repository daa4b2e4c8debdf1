package exp

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
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

// TestPressuredUnitInstrumentation: a pressured and an unpressured sphinx06
// unit in one sweep, on a 2-worker pool, are both audited and write
// telemetry files of their own.
func TestPressuredUnitInstrumentation(t *testing.T) {
	dir := t.TempDir()
	r := NewRunner(Micro)
	r.Jobs = 2
	r.Check = true
	r.TelemetryDir = dir
	arm := baseArm("stride", "")
	for u, row := range r.Sweep([]Arm{arm}, pressuredUnits())[0].Aligned(arm) {
		if row == nil {
			t.Errorf("unit %d: simulation failed", u)
		}
	}
	if err := r.TelemetryErr(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if n := r.AuditSummary(&sb); n != 0 || sb.String() != "audit: 2 simulation(s) audited, 0 violation(s)\n" {
		t.Errorf("audit summary = %q (%d violations), want both runs audited", sb.String(), n)
	}
	want := []string{"base+stride_sphinx06_1_0.000.jsonl", "base+stride_sphinx06_1_0.000_fp1.400.jsonl"}
	if files := listFiles(t, dir); !reflect.DeepEqual(files, want) {
		t.Errorf("telemetry files = %v, want %v", files, want)
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

// TestPreCanceledSweepBuildsNothing: a sweep under a context canceled
// before it starts builds no simulation. Every cell is a gap failed with
// context.Canceled, and no cell opens a telemetry file, registers an
// auditor or logs its run.
func TestPreCanceledSweepBuildsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	var progress strings.Builder
	r := NewRunner(Micro)
	r.Ctx = ctx
	r.Check = true
	r.TelemetryDir = dir
	r.Progress = &progress
	base, tri, str := standardArms()
	arms := []Arm{base, tri, str}
	units := SingleUnits(Micro.Workloads)
	g := r.Sweep(arms, units)[0]
	fails := map[string]error{}
	for _, f := range r.Failures() {
		fails[f.Key] = f.Err
	}
	for _, a := range arms {
		for u, row := range g.Aligned(a) {
			if row != nil {
				t.Errorf("%s on %v: not a gap", a.Name, units[u].Mix)
			}
			if err := fails[(Sim{a, units[u]}).key()]; !errors.Is(err, context.Canceled) {
				t.Errorf("%s on %v failed with %v, want context.Canceled", a.Name, units[u].Mix, err)
			}
		}
	}
	if files := listFiles(t, dir); len(files) != 0 {
		t.Errorf("telemetry files %v, want none", files)
	}
	var sb strings.Builder
	if r.AuditSummary(&sb); sb.String() != "audit: 0 simulation(s) audited, 0 violation(s)\n" {
		t.Errorf("audit summary = %q, want no simulation audited", sb.String())
	}
	if progress.Len() != 0 {
		t.Errorf("progress log %q, want empty", progress.String())
	}
}
