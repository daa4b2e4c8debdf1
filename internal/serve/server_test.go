package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamline/internal/exp/store"
)

// tinyBody is a sub-second simulation request used throughout the suite.
const tinyBody = `{"workload":"sphinx06","temporal":"streamline","footprint":0.02,"warmup":1000,"measure":4000,"llcSets":16,"metaKb":8}`

// tinyVariant is tinyBody with a distinct seed — a different content address.
func tinyVariant(seed int) string {
	return fmt.Sprintf(`{"workload":"sphinx06","footprint":0.02,"warmup":1000,"measure":4000,"llcSets":16,"metaKb":8,"seed":%d}`, seed)
}

// post sends one simulation request, returning status, cache tier, and body.
func post(t *testing.T, url, body string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/simulate", "application/json", strings.NewReader(body))
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

// waitFor polls cond until it holds or the suite gives up.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestColdThenCachedByteIdentical is the core caching proof: the second
// identical request is served from memory without re-simulation, and its
// bytes equal the cold response exactly.
func TestColdThenCachedByteIdentical(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, tier, cold := post(t, ts.URL, tinyBody)
	if status != http.StatusOK || tier != "none" {
		t.Fatalf("cold: status %d tier %q, want 200/none\n%s", status, tier, cold)
	}
	var doc map[string]any
	if err := json.Unmarshal(cold, &doc); err != nil {
		t.Fatalf("cold body is not JSON: %v", err)
	}
	if doc["workload"] != "sphinx06" || doc["temporal"] != "streamline" {
		t.Errorf("cold body misreports its configuration: %v", doc)
	}

	status, tier, warm := post(t, ts.URL, tinyBody)
	if status != http.StatusOK || tier != "memory" {
		t.Fatalf("warm: status %d tier %q, want 200/memory", status, tier)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("cached reply is not byte-identical:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}

	c := s.Counters()
	if c.Computed != 1 || c.MemoryHits != 1 || c.Requests != 2 {
		t.Errorf("counters after cold+warm: %+v, want computed=1 memoryHits=1 requests=2", c)
	}
	st := s.Status()
	if st.HitRate != 0.5 || st.CacheEntries != 1 || st.StoreRecords != -1 {
		t.Errorf("status: hitRate=%g cacheEntries=%d storeRecords=%d, want 0.5/1/-1",
			st.HitRate, st.CacheEntries, st.StoreRecords)
	}
}

// TestConcurrentIdenticalSingleFlight: N concurrent identical requests run
// exactly one simulation; the other N-1 collapse onto its flight and share
// the same bytes.
func TestConcurrentIdenticalSingleFlight(t *testing.T) {
	const n = 8
	s := New(Config{})
	release := make(chan struct{})
	s.SetComputeHook(func(string) { <-release })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var (
		mu     sync.Mutex
		tiers  = map[string]int{}
		bodies [][]byte
		wg     sync.WaitGroup
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, tier, body := post(t, ts.URL, tinyBody)
			mu.Lock()
			defer mu.Unlock()
			if status != http.StatusOK {
				t.Errorf("status %d, want 200", status)
			}
			tiers[tier]++
			bodies = append(bodies, body)
		}()
	}
	// All duplicates must be parked on the one flight before it completes.
	waitFor(t, "duplicates to collapse", func() bool {
		return s.Counters().Collapsed == n-1
	})
	close(release)
	wg.Wait()

	if tiers["none"] != 1 || tiers["flight"] != n-1 {
		t.Errorf("tiers = %v, want 1 none + %d flight", tiers, n-1)
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("collapsed waiter %d got different bytes", i)
		}
	}
	if c := s.Counters(); c.Computed != 1 || c.Collapsed != n-1 {
		t.Errorf("counters: %+v, want computed=1 collapsed=%d", c, n-1)
	}
}

// TestConcurrentDistinctRequests: different specs do not collapse onto each
// other — every one simulates, and each reply reports its own seed.
func TestConcurrentDistinctRequests(t *testing.T) {
	const n = 4
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			status, _, body := post(t, ts.URL, tinyVariant(seed))
			if status != http.StatusOK {
				t.Errorf("seed %d: status %d", seed, status)
				return
			}
			var doc struct {
				Seed int `json:"seed"`
			}
			if err := json.Unmarshal(body, &doc); err != nil || doc.Seed != seed {
				t.Errorf("seed %d: reply reports seed %d (err %v)", seed, doc.Seed, err)
			}
		}(i)
	}
	wg.Wait()
	if c := s.Counters(); c.Computed != n || c.Collapsed != 0 {
		t.Errorf("counters: %+v, want computed=%d collapsed=0", c, n)
	}
}

// TestQueueFullBackpressure: with the queue saturated, a distinct request is
// refused with 429 + Retry-After — but an identical one still collapses onto
// the in-progress flight instead of being rejected.
func TestQueueFullBackpressure(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	s.SetComputeHook(func(string) { <-release })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // request A occupies the only queue slot
		defer wg.Done()
		if status, _, _ := post(t, ts.URL, tinyVariant(1)); status != http.StatusOK {
			t.Errorf("admitted request: status %d", status)
		}
	}()
	waitFor(t, "request A to be admitted", func() bool { return s.Status().Queued == 1 })

	// A distinct request B cannot be admitted.
	resp, err := http.Post(ts.URL+"/simulate", "application/json", strings.NewReader(tinyVariant(2)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated: status %d, want 429\n%s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 carries no Retry-After")
	} else if n, err := strconv.Atoi(ra); err != nil || n < 1 || n > 30 {
		t.Errorf("Retry-After %q is not an integer in [1,30]", ra)
	}

	// An identical request C consumes no slot: it collapses, not rejects.
	wg.Add(1)
	go func() {
		defer wg.Done()
		status, tier, _ := post(t, ts.URL, tinyVariant(1))
		if status != http.StatusOK || tier != "flight" {
			t.Errorf("duplicate under saturation: status %d tier %q, want 200/flight", status, tier)
		}
	}()
	waitFor(t, "duplicate to collapse", func() bool { return s.Counters().Collapsed == 1 })

	close(release)
	wg.Wait()
	if c := s.Counters(); c.Rejected != 1 || c.Computed != 1 || c.Collapsed != 1 {
		t.Errorf("counters: %+v, want rejected=1 computed=1 collapsed=1", c)
	}
}

// TestStoreTierSurvivesRestart: a computed result persisted to the durable
// store is replayed byte-identically by a fresh server over the same
// directory — zero re-simulation — then promoted to its memory tier.
func TestStoreTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir() + "/results.d"
	st1, err := store.Create(dir, ServiceManifest())
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Store: st1})
	ts1 := httptest.NewServer(s1.Handler())
	status, tier, cold := post(t, ts1.URL, tinyBody)
	ts1.Close()
	if status != http.StatusOK || tier != "none" {
		t.Fatalf("cold: status %d tier %q", status, tier)
	}
	if s1.Status().StoreRecords != 1 {
		t.Fatalf("store holds %d records after compute, want 1", s1.Status().StoreRecords)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Create(dir, ServiceManifest())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Loaded() != 1 || st2.Quarantined() != 0 {
		t.Fatalf("reopen: loaded=%d quarantined=%d, want 1/0", st2.Loaded(), st2.Quarantined())
	}
	s2 := New(Config{Store: st2})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	status, tier, warm := post(t, ts2.URL, tinyBody)
	if status != http.StatusOK || tier != "store" {
		t.Fatalf("replay: status %d tier %q, want 200/store", status, tier)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("store replay is not byte-identical:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
	if c := s2.Counters(); c.Computed != 0 || c.StoreHits != 1 {
		t.Errorf("counters: %+v, want computed=0 storeHits=1 (no re-simulation)", c)
	}
	// The store hit also primed the LRU: the next lookup is a memory hit.
	if _, tier, _ := post(t, ts2.URL, tinyBody); tier != "memory" {
		t.Errorf("third request tier %q, want memory", tier)
	}
}

// TestDrainRefusesNewWork: after Drain, new computations answer 503 and
// healthz reports not-ready.
func TestDrainRefusesNewWork(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if status, _, _ := post(t, ts.URL, tinyBody); status != http.StatusServiceUnavailable {
		t.Errorf("simulate while draining: status %d, want 503", status)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: status %d, want 503", resp.StatusCode)
	}
	if !s.Status().Draining {
		t.Error("statusz does not report draining")
	}
}

// TestJobTimeout: a simulation exceeding JobTimeout answers 504; the failure
// is NOT cached, so a retry re-simulates and succeeds.
func TestJobTimeout(t *testing.T) {
	s := New(Config{JobTimeout: 50 * time.Millisecond})
	var slow atomic.Bool
	slow.Store(true)
	s.SetComputeHook(func(string) {
		if slow.CompareAndSwap(true, false) {
			time.Sleep(500 * time.Millisecond)
		}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, _, body := post(t, ts.URL, tinyBody)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("hung job: status %d, want 504\n%s", status, body)
	}
	if c := s.Counters(); c.Failed != 1 || c.Computed != 0 {
		t.Fatalf("counters after timeout: %+v, want failed=1 computed=0", c)
	}

	status, tier, _ := post(t, ts.URL, tinyBody)
	if status != http.StatusOK || tier != "none" {
		t.Errorf("retry: status %d tier %q, want 200/none (failure must not be cached)", status, tier)
	}
	if c := s.Counters(); c.Computed != 1 {
		t.Errorf("retry did not re-simulate: %+v", c)
	}
}

// TestInvalidRequests: malformed or out-of-bounds requests are refused before
// touching the simulator, with the status the failure mode documents.
func TestInvalidRequests(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name       string
		body       string
		wantStatus int
		wantErr    string
	}{
		{"truncated JSON", `{"workload":"sph`, http.StatusBadRequest, "malformed request"},
		{"unknown field", `{"workload":"sphinx06","bogus":1}`, http.StatusBadRequest, "unknown field"},
		{"trailing data", `{"workload":"sphinx06"} {}`, http.StatusBadRequest, "trailing data"},
		{"unknown workload", `{"workload":"nope"}`, http.StatusBadRequest, "unknown workload"},
		{"negative cores", `{"workload":"sphinx06","cores":-3}`, http.StatusBadRequest, "cores must be"},
		{"3 cores", `{"workload":"sphinx06","cores":3}`, http.StatusBadRequest, "1, 2, 4, 8 or 16"},
		{"5 cores", `{"workload":"sphinx06","cores":5}`, http.StatusBadRequest, "1, 2, 4, 8 or 16"},
		{"6 cores", `{"workload":"sphinx06","cores":6}`, http.StatusBadRequest, "1, 2, 4, 8 or 16"},
		{"bad llcSets", `{"workload":"sphinx06","llcSets":100}`, http.StatusBadRequest, "power of two"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, body := post(t, ts.URL, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status %d, want %d\n%s", status, tc.wantStatus, body)
			}
			var doc struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatalf("error body is not JSON: %v\n%s", err, body)
			}
			if !strings.Contains(doc.Error, tc.wantErr) {
				t.Errorf("error %q does not mention %q", doc.Error, tc.wantErr)
			}
		})
	}
	if c := s.Counters(); c.Invalid != uint64(len(cases)) || c.Computed != 0 {
		t.Errorf("counters: %+v, want invalid=%d computed=0", c, len(cases))
	}

	t.Run("oversized body", func(t *testing.T) {
		small := New(Config{MaxBodyBytes: 32})
		tss := httptest.NewServer(small.Handler())
		defer tss.Close()
		status, _, body := post(t, tss.URL, tinyBody)
		if status != http.StatusRequestEntityTooLarge {
			t.Errorf("status %d, want 413\n%s", status, body)
		}
		// A valid object that fits, followed by bytes that do not: the
		// whole body is over the limit, so 413, not "trailing data".
		status, _, body = post(t, tss.URL, `{"workload":"sphinx06"}`+strings.Repeat(" ", 32))
		if status != http.StatusRequestEntityTooLarge {
			t.Errorf("valid object with oversized tail: status %d, want 413\n%s", status, body)
		}
	})

	t.Run("wrong method", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/simulate")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /simulate: status %d, want 405", resp.StatusCode)
		}
		if resp.Header.Get("Allow") != http.MethodPost {
			t.Errorf("Allow = %q, want POST", resp.Header.Get("Allow"))
		}
	})
}

// TestRetryAfterDerivation: the backpressure Retry-After hint is the time to
// drain the current queue through the worker pool at the observed mean
// simulate latency — ceil(queued*mean/workers) — clamped to [1,30], and is a
// positive integer for every load state (including before any observation,
// when the mean is zero).
func TestRetryAfterDerivation(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})

	// No simulate latency observed yet: the floor, never zero or empty.
	if got := s.retryAfter(0); got != "1" {
		t.Errorf("retryAfter(0) with no observations = %q, want \"1\"", got)
	}
	if got := s.retryAfter(8); got != "1" {
		t.Errorf("retryAfter(8) with no observations = %q, want \"1\"", got)
	}

	// Mean simulate latency 3s: 8 queued / 2 workers -> 12s to drain.
	s.metrics.stage[stageSimulate].Observe(3)
	if got := s.retryAfter(8); got != "12" {
		t.Errorf("retryAfter(8) at 3s mean over 2 workers = %q, want \"12\"", got)
	}
	// A deep queue clamps at 30 rather than quoting minutes.
	if got := s.retryAfter(1000); got != "30" {
		t.Errorf("retryAfter(1000) = %q, want the 30s clamp", got)
	}
	// Sub-second drain estimates round up to the 1s floor.
	if got := s.retryAfter(1); got != "2" { // ceil(1*3/2)
		t.Errorf("retryAfter(1) = %q, want \"2\"", got)
	}
	fast := New(Config{Workers: 4, QueueDepth: 8})
	fast.metrics.stage[stageSimulate].Observe(0.010)
	if got := fast.retryAfter(3); got != "1" {
		t.Errorf("fast retryAfter(3) = %q, want the 1s floor", got)
	}

	// Exhaustive: every queue depth yields an integer in [1,30].
	for q := 0; q <= 256; q++ {
		n, err := strconv.Atoi(s.retryAfter(q))
		if err != nil || n < 1 || n > 30 {
			t.Fatalf("retryAfter(%d) = %q; want an integer in [1,30] (err %v)",
				q, s.retryAfter(q), err)
		}
	}
}
