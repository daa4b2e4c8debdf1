package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// TestMain re-execs the test binary as the experiments command when
// EXPERIMENTS_BE_MAIN=1, so the end-to-end tests below drive the real CLI —
// real flags, real exit codes, real SIGKILL crashes — without a separate
// build step.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_BE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// run invokes the CLI as a child process and returns stdout, stderr, and the
// exit code (negative for signal deaths: -9 for SIGKILL).
func run(t *testing.T, env []string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_BE_MAIN=1")
	cmd.Env = append(cmd.Env, env...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("running child: %v", err)
		}
		ws := ee.Sys().(syscall.WaitStatus)
		if ws.Signaled() {
			code = -int(ws.Signal())
		} else {
			code = ee.ExitCode()
		}
	}
	return stdout.String(), stderr.String(), code
}

// countRecords returns how many result lines the sweep directory holds.
func countRecords(t *testing.T, dir string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		if os.IsNotExist(err) {
			return 0
		}
		t.Fatal(err)
	}
	n := 0
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) > 0 {
			n++
		}
	}
	return n
}

// TestCrashAndResumeByteIdentical is the acceptance test for the crash-safe
// sweep: run uninterrupted; then SIGKILL a fresh run right after its 2nd
// result is durable; resume the half-finished directory and require stdout
// byte-identical to the uninterrupted run, with cached results replayed.
func TestCrashAndResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs micro-scale simulations in child processes")
	}
	args := []string{"-run", "fig9", "-scale", "micro", "-jobs", "2", "-q"}

	wantOut, _, code := run(t, nil, args...)
	if code != 0 {
		t.Fatalf("uninterrupted run exited %d", code)
	}
	if !strings.Contains(wantOut, "fig9") {
		t.Fatalf("unexpected stdout:\n%s", wantOut)
	}

	dir := filepath.Join(t.TempDir(), "sweep.d")
	_, _, code = run(t, []string{"EXPERIMENTS_CRASH_AFTER=2"},
		append(args, "-checkpoint", dir)...)
	if code != -9 {
		t.Fatalf("crash-armed run exited %d, want SIGKILL (-9)", code)
	}
	got := countRecords(t, dir)
	if got != 2 {
		t.Fatalf("crashed sweep holds %d records, want exactly 2 durable before the kill", got)
	}

	out, errOut, code := run(t, nil, append(args, "-resume", dir)...)
	if code != 0 {
		t.Fatalf("resumed run exited %d\nstderr:\n%s", code, errOut)
	}
	if out != wantOut {
		t.Errorf("resumed stdout differs from the uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", wantOut, out)
	}
	if !strings.Contains(errOut, "replayed 2 cached result(s)") {
		t.Errorf("resume did not report replaying the 2 durable results:\n%s", errOut)
	}

	// Resuming the now-complete sweep replays everything and recomputes
	// nothing, still byte-identical.
	total := countRecords(t, dir)
	out2, errOut2, code := run(t, nil, append(args, "-resume", dir)...)
	if code != 0 || out2 != wantOut {
		t.Errorf("second resume: exit %d, identical=%v", code, out2 == wantOut)
	}
	if !strings.Contains(errOut2, "replayed") || countRecords(t, dir) != total {
		t.Errorf("second resume recomputed or re-appended results:\n%s", errOut2)
	}
}

// TestInjectedFailureDegrades: a permanently panicking job must not abort the
// sweep — the run completes, marks the cell GAP, prints the degradation
// banner on stdout, and exits 1.
func TestInjectedFailureDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("runs micro-scale simulations in child processes")
	}
	out, _, code := run(t, []string{"EXPERIMENTS_FAIL_KEY=triangel|"},
		"-run", "fig9", "-scale", "micro", "-jobs", "2", "-q")
	if code != 1 {
		t.Fatalf("degraded sweep exited %d, want 1", code)
	}
	if !strings.Contains(out, "GAP") {
		t.Errorf("no GAP cells in degraded output:\n%s", out)
	}
	if !strings.Contains(out, "sweep degraded:") {
		t.Errorf("degradation banner missing from stdout:\n%s", out)
	}
	if !strings.Contains(out, "fig9") {
		t.Errorf("sweep aborted instead of degrading:\n%s", out)
	}
}

// TestMetricsLeaveStdoutIdentical: -metrics is pure observability — stdout
// stays byte-identical with it on, and the exposition file accounts every
// job.
func TestMetricsLeaveStdoutIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs micro-scale simulations in child processes")
	}
	args := []string{"-run", "fig9", "-scale", "micro", "-jobs", "2", "-q"}

	wantOut, _, code := run(t, nil, args...)
	if code != 0 {
		t.Fatalf("plain run exited %d", code)
	}

	dest := filepath.Join(t.TempDir(), "metrics.txt")
	out, errOut, code := run(t, nil, append(args, "-metrics", dest)...)
	if code != 0 {
		t.Fatalf("instrumented run exited %d\nstderr:\n%s", code, errOut)
	}
	if out != wantOut {
		t.Errorf("-metrics changed stdout:\n--- want ---\n%s\n--- got ---\n%s", wantOut, out)
	}

	data, err := os.ReadFile(dest)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"# TYPE runner_jobs_completed_total counter",
		"runner_jobs_failed_total 0",
		"runner_jobs_gapped_total 0",
		"# TYPE runner_job_attempt_seconds histogram",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition is missing %q:\n%s", want, text)
		}
	}
	// Every simulation fig9 ran must be accounted as a completed job.
	if !strings.Contains(text, "runner_jobs_completed_total ") ||
		strings.Contains(text, "runner_jobs_completed_total 0\n") {
		t.Errorf("no completed jobs counted:\n%s", text)
	}

	// '-' routes the exposition to stderr, still leaving stdout identical.
	out, errOut, code = run(t, nil, append(args, "-metrics", "-")...)
	if code != 0 || out != wantOut {
		t.Fatalf("-metrics - run: exit %d, stdout identical=%v", code, out == wantOut)
	}
	if !strings.Contains(errOut, "# TYPE runner_jobs_completed_total counter") {
		t.Errorf("exposition missing from stderr:\n%s", errOut)
	}
}

// TestFlagValidation: bad invocations fail fast with exit 2 and a message
// naming the problem, before any simulation starts.
func TestFlagValidation(t *testing.T) {
	t.Run("jobs", func(t *testing.T) {
		_, errOut, code := run(t, nil, "-run", "fig9", "-scale", "micro", "-jobs", "0")
		if code != 2 || !strings.Contains(errOut, "invalid -jobs 0") {
			t.Errorf("exit=%d stderr=%q", code, errOut)
		}
	})
	t.Run("unknown-run", func(t *testing.T) {
		_, errOut, code := run(t, nil, "-run", "fig99", "-scale", "micro")
		if code != 2 || !strings.Contains(errOut, `unknown experiment "fig99"`) {
			t.Errorf("exit=%d stderr=%q", code, errOut)
		}
	})
	t.Run("unknown-scale", func(t *testing.T) {
		_, errOut, code := run(t, nil, "-run", "fig9", "-scale", "huge")
		if code != 2 || !strings.Contains(errOut, `unknown scale "huge"`) {
			t.Errorf("exit=%d stderr=%q", code, errOut)
		}
	})
	t.Run("checkpoint-and-resume", func(t *testing.T) {
		_, errOut, code := run(t, nil, "-run", "fig9", "-scale", "micro",
			"-checkpoint", "a.d", "-resume", "b.d")
		if code != 2 || !strings.Contains(errOut, "mutually exclusive") {
			t.Errorf("exit=%d stderr=%q", code, errOut)
		}
	})
	t.Run("resume-missing-dir", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "never-created")
		_, errOut, code := run(t, nil, "-run", "fig9", "-scale", "micro", "-resume", dir)
		if code != 2 ||
			!strings.Contains(errOut, "not a resumable sweep directory") ||
			!strings.Contains(errOut, filepath.Join(dir, "MANIFEST.json")) {
			t.Errorf("exit=%d stderr=%q", code, errOut)
		}
	})
	t.Run("resume-foreign-dir", func(t *testing.T) {
		// A directory that exists but holds no manifest (someone's random
		// data directory) must be refused, naming the expected manifest.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "data.txt"), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, errOut, code := run(t, nil, "-run", "fig9", "-scale", "micro", "-resume", dir)
		if code != 2 || !strings.Contains(errOut, "MANIFEST.json") {
			t.Errorf("exit=%d stderr=%q", code, errOut)
		}
	})
	t.Run("resume-scale-mismatch", func(t *testing.T) {
		if testing.Short() {
			t.Skip("creates a checkpoint with a real run")
		}
		dir := filepath.Join(t.TempDir(), "sweep.d")
		_, _, code := run(t, nil, "-run", "table2", "-scale", "micro", "-checkpoint", dir, "-q")
		if code != 0 {
			t.Fatalf("checkpoint run exited %d", code)
		}
		_, errOut, code := run(t, nil, "-run", "table2", "-scale", "small", "-resume", dir)
		if code != 2 || !strings.Contains(errOut, "does not match this run") {
			t.Errorf("exit=%d stderr=%q", code, errOut)
		}
	})
}
