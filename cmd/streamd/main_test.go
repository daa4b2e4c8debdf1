package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestMain re-execs the test binary as the streamd command when
// STREAMD_BE_MAIN=1, so the end-to-end tests below drive the real daemon —
// real sockets, real signals, real SIGKILL crashes — without a separate
// build step (the same machinery as cmd/experiments' crash harness).
func TestMain(m *testing.M) {
	if os.Getenv("STREAMD_BE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is one running child streamd.
type daemon struct {
	cmd      *exec.Cmd
	addr     string
	scanDone chan struct{}

	mu     sync.Mutex
	stderr bytes.Buffer
}

// startDaemon launches the child on an ephemeral port and waits for its
// "listening on" line.
func startDaemon(t *testing.T, extraArgs ...string) *daemon {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "STREAMD_BE_MAIN=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, scanDone: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(d.scanDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr.WriteString(line + "\n")
			d.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "streamd: listening on "); ok {
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
	}()
	select {
	case d.addr = <-addrCh:
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("daemon did not report its address; stderr so far:\n%s", d.stderrText())
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return d
}

func (d *daemon) stderrText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// wait reaps the child, returning its exit code (negative for signal deaths).
// It joins the stderr scanner first, so stderrText afterwards is complete.
func (d *daemon) wait(t *testing.T) int {
	t.Helper()
	select {
	case <-d.scanDone:
	case <-time.After(10 * time.Second):
		t.Error("stderr scanner did not finish")
	}
	err := d.cmd.Wait()
	if err == nil {
		return 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("waiting for daemon: %v", err)
	}
	ws := ee.Sys().(syscall.WaitStatus)
	if ws.Signaled() {
		return -int(ws.Signal())
	}
	return ee.ExitCode()
}

// simulate POSTs body to the daemon and returns status, cache tier header,
// and response body.
func (d *daemon) simulate(t *testing.T, body string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post("http://"+d.addr+"/simulate", "application/json",
		strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /simulate: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Streamd-Cache"), data
}

// statusz fetches and decodes the /statusz counters the tests assert on.
func (d *daemon) statusz(t *testing.T) map[string]any {
	t.Helper()
	resp, err := http.Get("http://" + d.addr + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]any
	data, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatalf("statusz: %v\n%s", err, data)
	}
	return st
}

// tinySpec is a sub-second simulation request.
const tinySpec = `{"workload":"sphinx06","temporal":"streamline","footprint":0.02,"warmup":1000,"measure":4000,"llcSets":16,"metaKb":8}`

// TestKillAndRestartPersistence is the satellite acceptance test: populate
// the durable store through the daemon, SIGKILL it, restart on the same
// -checkpoint directory, and require the same request to be a verified cache
// hit — byte-identical body, zero re-simulation.
func TestKillAndRestartPersistence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations in child processes")
	}
	dir := t.TempDir() + "/results.d"

	d1 := startDaemon(t, "-checkpoint", dir)
	status, tier, cold := d1.simulate(t, tinySpec)
	if status != http.StatusOK || tier != "none" {
		t.Fatalf("cold request: status %d, tier %q; want 200/none\nbody: %s", status, tier, cold)
	}
	st := d1.statusz(t)
	if st["computed"] != 1.0 || st["storeHits"] != 0.0 {
		t.Fatalf("cold statusz: computed=%v storeHits=%v, want 1/0", st["computed"], st["storeHits"])
	}
	// The response was served, so the record is already durable (PutRaw
	// fsyncs before the flight is published) — a SIGKILL now must lose
	// nothing.
	if err := d1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if code := d1.wait(t); code != -9 {
		t.Fatalf("killed daemon exited %d, want SIGKILL (-9)", code)
	}

	d2 := startDaemon(t, "-checkpoint", dir)
	if !strings.Contains(d2.stderrText(), "holds 1 result(s)") {
		t.Errorf("restarted daemon did not recover the record:\n%s", d2.stderrText())
	}
	status, tier, warm := d2.simulate(t, tinySpec)
	if status != http.StatusOK || tier != "store" {
		t.Fatalf("replayed request: status %d, tier %q; want 200/store", status, tier)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("replayed body differs from the cold one:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
	st = d2.statusz(t)
	if st["computed"] != 0.0 || st["storeHits"] != 1.0 {
		t.Errorf("replayed statusz: computed=%v storeHits=%v, want 0/1 (no re-simulation)", st["computed"], st["storeHits"])
	}

	// Clean shutdown: SIGTERM drains and exits 0.
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d2.wait(t); code != 0 {
		t.Errorf("SIGTERM exit code %d, want 0\nstderr:\n%s", code, d2.stderrText())
	}
	if out := d2.stderrText(); !strings.Contains(out, "draining") || !strings.Contains(out, "drained, bye") {
		t.Errorf("graceful drain not reported:\n%s", out)
	}
}

// TestObservabilityEndToEnd: the daemon started with -access-log and
// -slow-request serves a scrapeable /metricz and, after a graceful drain,
// leaves a valid JSONL access log whose IDs match the X-Streamd-Request
// response headers.
func TestObservabilityEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations in child processes")
	}
	logPath := t.TempDir() + "/access.jsonl"
	d := startDaemon(t, "-access-log", logPath, "-slow-request", "1ns")

	var ids []string
	for i, wantTier := range []string{"none", "memory"} {
		resp, err := http.Post("http://"+d.addr+"/simulate", "application/json",
			strings.NewReader(tinySpec))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Streamd-Cache") != wantTier {
			t.Fatalf("request %d: status %d tier %q, want 200/%s",
				i, resp.StatusCode, resp.Header.Get("X-Streamd-Cache"), wantTier)
		}
		id := resp.Header.Get("X-Streamd-Request")
		if id == "" {
			t.Fatalf("request %d carries no X-Streamd-Request header", i)
		}
		ids = append(ids, id)
	}

	mresp, err := http.Get("http://" + d.addr + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	exposition, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metricz: status %d", mresp.StatusCode)
	}
	for _, want := range []string{
		`streamd_responses_total{outcome="computed"} 1`,
		`streamd_responses_total{outcome="memory_hit"} 1`,
		"runner_jobs_completed_total 1",
	} {
		if !strings.Contains(string(exposition), want+"\n") {
			t.Errorf("/metricz is missing %q:\n%s", want, exposition)
		}
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d.wait(t); code != 0 {
		t.Fatalf("SIGTERM exit code %d\nstderr:\n%s", code, d.stderrText())
	}

	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log holds %d lines, want 2:\n%s", len(lines), data)
	}
	for i, line := range lines {
		var rec struct {
			Type    string `json:"type"`
			ID      string `json:"id"`
			Status  int    `json:"status"`
			Outcome string `json:"outcome"`
			Slow    bool   `json:"slow"`
			Stages  *struct {
				SimulateUs int64 `json:"simulateUs"`
			} `json:"stages"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access log line %d is not valid JSON: %v\n%s", i, err, line)
		}
		if rec.Type != "access" || rec.Status != 200 {
			t.Errorf("record %d: type %q status %d", i, rec.Type, rec.Status)
		}
		if rec.ID != ids[i] {
			t.Errorf("record %d ID %q does not match response header %q", i, rec.ID, ids[i])
		}
		if !rec.Slow || rec.Stages == nil {
			t.Errorf("record %d was not promoted by -slow-request 1ns: %s", i, line)
		}
	}
}

// TestDaemonFlagValidation: bad invocations exit 2 before binding a socket.
// The access log is the daemon's one per-request record; there is no
// -telemetry flag.
func TestDaemonFlagValidation(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-telemetry", "x")
	cmd.Env = append(os.Environ(), "STREAMD_BE_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("exit = %v, want code 2", err)
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined") {
		t.Errorf("stderr: %q", stderr.String())
	}
}
