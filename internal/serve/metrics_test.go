package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamline/internal/exp/store"
	"streamline/internal/metrics"
)

// scrapeLine matches one non-comment exposition line: name{labels} value.
var scrapeLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[0-9eE.+-]+)$`)

// checkScrape asserts text parses as well-formed exposition output.
func checkScrape(t *testing.T, text string) {
	t.Helper()
	if text == "" {
		t.Fatal("empty exposition body")
	}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !scrapeLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
}

// scrape fetches /metricz and returns the exposition body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metricz")
	if err != nil {
		t.Fatalf("GET /metricz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metricz: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestMetriczExposition: after a computed, a memory-hit, and an invalid
// request, the scrape is well-formed and the deterministic instruments
// (counters, gauges, histogram counts) carry exact values.
func TestMetriczExposition(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if status, _, _ := post(t, ts.URL, tinyBody); status != http.StatusOK {
		t.Fatalf("cold request: status %d", status)
	}
	if status, tier, _ := post(t, ts.URL, tinyBody); status != http.StatusOK || tier != "memory" {
		t.Fatalf("warm request: status %d tier %q", status, tier)
	}
	if status, _, _ := post(t, ts.URL, "{"); status != http.StatusBadRequest {
		t.Fatalf("invalid request: status %d", status)
	}
	// The computing goroutine releases its queue slot after the response is
	// served; wait for the accounting to settle before pinning gauge values.
	waitFor(t, "queue to drain", func() bool { return s.Status().Queued == 0 })

	text := scrape(t, ts.URL)
	checkScrape(t, text)
	for _, want := range []string{
		"streamd_requests_total 3",
		`streamd_responses_total{outcome="computed"} 1`,
		`streamd_responses_total{outcome="memory_hit"} 1`,
		`streamd_responses_total{outcome="invalid"} 1`,
		`streamd_responses_total{outcome="failed"} 0`,
		"streamd_queue_depth 0",
		"streamd_inflight_workers 0",
		"streamd_cache_entries 1",
		"streamd_draining 0",
		"streamd_request_seconds_count 3",
		`streamd_request_stage_seconds_count{stage="decode"} 3`,
		`streamd_request_stage_seconds_count{stage="simulate"} 1`,
		`streamd_request_stage_seconds_count{stage="persist"} 0`,
		"runner_jobs_completed_total 1",
		"runner_job_attempt_seconds_count 1",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("scrape is missing %q", want)
		}
	}

	// Two scrapes of a quiet server are byte-identical except the uptime-free
	// format has no wall-clock lines at all — so fully identical.
	if again := scrape(t, ts.URL); again != text {
		t.Errorf("scrape of idle server is not deterministic:\n--- first ---\n%s\n--- second ---\n%s", text, again)
	}
}

// TestMetricsSharedRegistry: a caller-supplied registry is the one /metricz
// renders, and the daemon's runner-level instruments land on it too.
func TestMetricsSharedRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	own := reg.Counter("my_own_total", "caller instrument")
	for range 42 {
		own.Inc()
	}
	s := New(Config{Metrics: reg})
	if s.Metrics() != reg {
		t.Fatal("server did not adopt the supplied registry")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	text := scrape(t, ts.URL)
	for _, want := range []string{"my_own_total 42", "runner_jobs_completed_total 0"} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("shared scrape is missing %q", want)
		}
	}
}

// TestDrainRefusedAccounting: a request refused because the server is
// draining is counted — in Counters, /statusz, and the metrics — and its 503
// carries Retry-After, so the every-request-lands-somewhere invariant holds.
func TestDrainRefusedAccounting(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if err := s.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/simulate", "application/json", strings.NewReader(tinyBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("simulate while draining: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After %q, want \"1\"", ra)
	}

	if c := s.Counters(); c.DrainRefused != 1 || c.Requests != 1 {
		t.Errorf("counters: %+v, want drainRefused=1 requests=1", c)
	}
	var doc map[string]any
	sresp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc["drainRefused"] != 1.0 {
		t.Errorf("statusz drainRefused = %v, want 1", doc["drainRefused"])
	}

	text := scrape(t, ts.URL)
	for _, want := range []string{
		`streamd_responses_total{outcome="drain_refused"} 1`,
		"streamd_draining 1",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("scrape is missing %q", want)
		}
	}
}

// TestReadEndpointMethods: the read-only endpoints accept GET and HEAD only;
// anything else answers 405 with an Allow header.
func TestReadEndpointMethods(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	for _, path := range []string{"/healthz", "/statusz", "/metricz"} {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete} {
			req, err := http.NewRequest(method, ts.URL+path, strings.NewReader("x"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", method, path, resp.StatusCode)
			}
			if allow := resp.Header.Get("Allow"); allow != "GET, HEAD" {
				t.Errorf("%s %s: Allow %q, want \"GET, HEAD\"", method, path, allow)
			}
		}
		resp, err := client.Head(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("HEAD %s: status %d, want 200", path, resp.StatusCode)
		}
		if len(body) != 0 {
			t.Errorf("HEAD %s: body %q, want empty", path, body)
		}
	}
}

// TestStatusUnderConcurrentLoad exercises the accounting under real
// concurrency: distinct gated computations fill the queue and the worker
// pool, duplicates collapse, /metricz is scraped throughout (this test is the
// race detector's view of the scrape path), and after the dust settles the
// transient gauges are back to zero and the hit-rate math is exact.
func TestStatusUnderConcurrentLoad(t *testing.T) {
	const distinct = 6
	const workers = 2
	s := New(Config{Workers: workers, QueueDepth: 32})
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	s.SetComputeHook(func(string) { <-release })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// A failed assertion below must not deadlock ts.Close on gated handlers.
	defer unblock()

	// Seeds start at 1: the spec normalizes seed 0 to the default seed, so
	// tinyVariant(0) and tinyVariant(1) would share one content address.
	var wg sync.WaitGroup
	for i := 0; i < distinct; i++ {
		body := tinyVariant(i + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if status, _, out := post(t, ts.URL, body); status != http.StatusOK {
				t.Errorf("load request: status %d\n%s", status, out)
			}
		}()
	}
	waitFor(t, "queue to fill", func() bool {
		st := s.Status()
		return st.Queued == distinct && st.InFlight == workers
	})
	// Two duplicates of variant 1 collapse onto its still-gated flight.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if status, tier, _ := post(t, ts.URL, tinyVariant(1)); status != http.StatusOK || tier != "flight" {
				t.Errorf("duplicate: status %d tier %q, want 200/flight", status, tier)
			}
		}()
	}
	waitFor(t, "duplicates to collapse", func() bool {
		return s.Status().Collapsed == 2
	})
	// Scrape while everything is gated: the load-bearing gauges are pinned.
	text := scrape(t, ts.URL)
	checkScrape(t, text)
	for _, want := range []string{
		fmt.Sprintf("streamd_queue_depth %d", distinct),
		fmt.Sprintf("streamd_inflight_workers %d", workers),
		fmt.Sprintf("streamd_worker_capacity %d", workers),
		"streamd_queue_capacity 32",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("scrape under load is missing %q", want)
		}
	}

	// Keep scraping concurrently while the computations release and finish.
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for i := 0; i < 20; i++ {
			checkScrape(t, scrape(t, ts.URL))
			time.Sleep(time.Millisecond)
		}
	}()
	unblock()
	wg.Wait()
	<-scrapeDone

	waitFor(t, "gauges to settle", func() bool {
		st := s.Status()
		return st.Queued == 0 && st.InFlight == 0
	})

	// Four warm hits, then the hit-rate identity:
	// (memory + store + collapsed) / (hits + computed + failed).
	for i := 0; i < 4; i++ {
		if status, tier, _ := post(t, ts.URL, tinyVariant(i+1)); status != http.StatusOK || tier != "memory" {
			t.Fatalf("warm request %d: status %d tier %q", i, status, tier)
		}
	}
	st := s.Status()
	if st.Computed != distinct || st.Collapsed != 2 || st.MemoryHits != 4 {
		t.Fatalf("counters: %+v, want computed=%d collapsed=2 memoryHits=4", st.Counters, distinct)
	}
	want := float64(4+2) / float64(4+2+distinct)
	if st.HitRate != want {
		t.Errorf("hit rate %g, want %g", st.HitRate, want)
	}

	text = scrape(t, ts.URL)
	for _, line := range []string{
		"streamd_queue_depth 0",
		"streamd_inflight_workers 0",
		fmt.Sprintf(`streamd_responses_total{outcome="computed"} %d`, distinct),
		`streamd_responses_total{outcome="collapsed"} 2`,
		`streamd_responses_total{outcome="memory_hit"} 4`,
		fmt.Sprintf("runner_jobs_completed_total %d", distinct),
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("settled scrape is missing %q", line)
		}
	}
}

// postID is post also returning the X-Streamd-Request header.
func postID(t *testing.T, url, body string) (int, string, []byte, string) {
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
	return resp.StatusCode, resp.Header.Get("X-Streamd-Cache"), data, resp.Header.Get("X-Streamd-Request")
}

// TestAccessLog: one JSONL record per request, in completion order, carrying
// the same ID the response exposed as X-Streamd-Request; with a slow-request
// threshold of 1ns every record promotes its stage breakdown, and only the
// request that owned the computation carries compute-side stages.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{AccessLog: &buf, SlowRequest: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ids := make([]string, 0, 3)
	status, _, cold, id := postID(t, ts.URL, tinyBody)
	if status != http.StatusOK {
		t.Fatalf("cold: status %d", status)
	}
	ids = append(ids, id)
	status, tier, _, id := postID(t, ts.URL, tinyBody)
	if status != http.StatusOK || tier != "memory" {
		t.Fatalf("warm: status %d tier %q", status, tier)
	}
	ids = append(ids, id)
	status, _, _, id = postID(t, ts.URL, "{")
	if status != http.StatusBadRequest {
		t.Fatalf("invalid: status %d", status)
	}
	ids = append(ids, id)

	recs, _ := accessRecords(t, &buf)
	if len(recs) != 3 {
		t.Fatalf("access log holds %d lines, want 3:\n%s", len(recs), buf.String())
	}

	for i, rec := range recs {
		if rec.Type != "access" {
			t.Errorf("record %d type %q", i, rec.Type)
		}
		if rec.ID != ids[i] {
			t.Errorf("record %d ID %q does not match X-Streamd-Request %q", i, rec.ID, ids[i])
		}
		if !rec.Slow || rec.Stages == nil {
			t.Errorf("record %d not promoted by the 1ns slow threshold: %+v", i, rec)
		}
		if rec.DurationUs <= 0 {
			t.Errorf("record %d has no duration", i)
		}
	}
	if recs[0].Outcome != "computed" || recs[0].Tier != "none" || recs[0].Status != 200 {
		t.Errorf("cold record: %+v", recs[0])
	}
	if recs[0].Bytes != len(cold) {
		t.Errorf("cold record bytes %d, want %d", recs[0].Bytes, len(cold))
	}
	if recs[0].Stages.SimulateUs <= 0 || recs[0].Stages.QueueWaitUs <= 0 || recs[0].Stages.MarshalUs <= 0 {
		t.Errorf("cold record lacks compute-side stages: %+v", recs[0].Stages)
	}
	if recs[1].Outcome != "memory-hit" || recs[1].Tier != "memory" {
		t.Errorf("warm record: %+v", recs[1])
	}
	if recs[1].Stages.SimulateUs != 0 || recs[1].Stages.LookupUs <= 0 {
		t.Errorf("warm record stages: %+v (a cache hit owns no compute spans)", recs[1].Stages)
	}
	if recs[2].Outcome != "invalid" || recs[2].Status != 400 || recs[2].Spec != "" {
		t.Errorf("invalid record: %+v", recs[2])
	}
	if recs[0].ID == recs[1].ID || recs[1].ID == recs[2].ID {
		t.Errorf("request IDs are not unique: %v", ids)
	}

	// The observability machinery must not perturb responses: a server with
	// no access log serves byte-identical simulation bodies.
	plain := New(Config{})
	ts2 := httptest.NewServer(plain.Handler())
	defer ts2.Close()
	if _, _, bare := post(t, ts2.URL, tinyBody); !bytes.Equal(bare, cold) {
		t.Errorf("response bodies differ with access logging enabled:\n--- logged ---\n%s\n--- bare ---\n%s", cold, bare)
	}
}

// accessRecords parses an access log, failing t on any line that is not one
// JSON record; it returns the records and their raw lines.
func accessRecords(t *testing.T, log *bytes.Buffer) ([]AccessRecord, []string) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(log.String(), "\n"), "\n")
	recs := make([]AccessRecord, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &recs[i]); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
	}
	return recs, lines
}

// postStatus is post for goroutines other than the test's: it returns the
// status and any transport error instead of failing the test.
func postStatus(url, body string) (int, error) {
	resp, err := http.Post(url+"/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// TestAccessLogErrors: the error text a request failed with reaches its
// access record — the decode error of an invalid body, the computation's
// error on every waiter of a failed flight, and the store's persist error on
// a request that is otherwise computed.
func TestAccessLogErrors(t *testing.T) {
	t.Run("invalid", func(t *testing.T) {
		var buf bytes.Buffer
		ts := httptest.NewServer(New(Config{AccessLog: &buf}).Handler())
		defer ts.Close()
		status, _, body := post(t, ts.URL, "{")
		var doc struct{ Error string }
		if err := json.Unmarshal(body, &doc); err != nil || status != http.StatusBadRequest {
			t.Fatalf("invalid: status %d body %s", status, body)
		}
		recs, _ := accessRecords(t, &buf)
		if recs[0].Outcome != "invalid" || recs[0].Error == "" || recs[0].Error != doc.Error {
			t.Errorf("invalid record %+v, want the response's error %q", recs[0], doc.Error)
		}
	})

	t.Run("panic", func(t *testing.T) {
		var buf bytes.Buffer
		s := New(Config{AccessLog: &buf})
		release := make(chan struct{})
		s.SetComputeHook(func(string) {
			<-release
			panic("kaboom")
		})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		statuses := make(chan int, 2)
		for range 2 {
			go func() {
				status, err := postStatus(ts.URL, tinyBody)
				if err != nil {
					t.Error(err)
				}
				statuses <- status
			}()
		}
		waitFor(t, "the duplicate to collapse", func() bool { return s.Counters().Collapsed == 1 })
		close(release)
		for range 2 {
			if status := <-statuses; status != http.StatusInternalServerError {
				t.Errorf("panicking computation answered %d, want 500", status)
			}
		}
		recs, _ := accessRecords(t, &buf)
		if len(recs) != 2 {
			t.Fatalf("access log holds %d records, want 2:\n%s", len(recs), buf.String())
		}
		for i, rec := range recs {
			if rec.Outcome != "panic" || !strings.Contains(rec.Error, "kaboom") {
				t.Errorf("waiter %d record %+v, want outcome panic carrying the panic", i, rec)
			}
		}
		if recs[0].Error != recs[1].Error {
			t.Errorf("waiters of one flight logged different errors: %q vs %q", recs[0].Error, recs[1].Error)
		}
	})

	t.Run("store-error", func(t *testing.T) {
		st, err := store.Create(t.TempDir(), ServiceManifest())
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil { // PutRaw now fails with os.ErrInvalid
			t.Fatal(err)
		}
		var buf bytes.Buffer
		ts := httptest.NewServer(New(Config{Store: st, AccessLog: &buf}).Handler())
		defer ts.Close()
		if status, tier, _ := post(t, ts.URL, tinyBody); status != http.StatusOK || tier != "none" {
			t.Fatalf("computed despite a closed store: status %d tier %q, want 200/none", status, tier)
		}
		recs, _ := accessRecords(t, &buf)
		if recs[0].Outcome != "computed" || recs[0].Error != os.ErrInvalid.Error() {
			t.Errorf("record %+v, want outcome computed with error %q", recs[0], os.ErrInvalid)
		}
	})
}

// TestPanicIsItsOwnOutcome: a computation that panics is a server bug, not
// a failed simulation. It answers 500 without the panic text, counts as
// Panicked (not Failed) in Counters, /statusz and the exposition, and is
// cached nowhere, so the next identical request computes again.
func TestPanicIsItsOwnOutcome(t *testing.T) {
	s := New(Config{})
	var panics atomic.Int32
	s.SetComputeHook(func(string) {
		if panics.Add(1) == 1 {
			panic("kaboom")
		}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	status, _, body := post(t, ts.URL, tinyBody)
	if status != http.StatusInternalServerError || strings.Contains(string(body), "kaboom") {
		t.Errorf("panicking computation answered %d %s, want 500 without the panic text", status, body)
	}
	if status, tier, _ := post(t, ts.URL, tinyBody); status != http.StatusOK || tier != "none" {
		t.Errorf("request after the panic answered %d from tier %q, want 200 computed", status, tier)
	}
	waitFor(t, "the queue to drain", func() bool { return s.Status().Queued == 0 })
	if c := s.Counters(); c.Panicked != 1 || c.Failed != 0 || c.Computed != 1 {
		t.Errorf("counters %+v, want panicked=1 failed=0 computed=1", c)
	}
	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || st.Panicked != 1 {
		t.Errorf("/statusz panicked = %d (%v), want 1", st.Panicked, err)
	}
	text := scrape(t, ts.URL)
	for _, want := range []string{
		`streamd_responses_total{outcome="panic"} 1`,
		`streamd_responses_total{outcome="failed"} 0`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition lacks %q", want)
		}
	}
}

// accessKeyOrder is the access record's key order. A record carries a
// subsequence of it, and "error" only when the request failed.
var accessKeyOrder = []string{"type", "id", "spec", "status", "outcome", "tier", "bytes", "durationUs", "slow", "stages", "error"}

// checkKeyOrder fails t unless line's top-level keys follow accessKeyOrder.
func checkKeyOrder(t *testing.T, line string) {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(line))
	if _, err := dec.Token(); err != nil { // the opening brace
		t.Fatal(err)
	}
	next := 0
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		for next < len(accessKeyOrder) && accessKeyOrder[next] != tok {
			next++
		}
		if next == len(accessKeyOrder) {
			t.Fatalf("key %q out of order in %s", tok, line)
		}
		next++
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAccessLogConcurrentWriters: many handlers finish at once, yet every
// line of the log is one whole record and there is one line per request (run
// under -race to prove the server serializes its writes).
func TestAccessLogConcurrentWriters(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{AccessLog: &buf, SlowRequest: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const goroutines, perG = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				body := tinyBody
				if i%2 == 1 {
					body = "{"
				}
				if _, err := postStatus(ts.URL, body); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	recs, lines := accessRecords(t, &buf)
	if len(recs) != goroutines*perG {
		t.Fatalf("access log holds %d records, want %d", len(recs), goroutines*perG)
	}
	ids := make(map[string]bool, len(recs))
	for i, rec := range recs {
		checkKeyOrder(t, lines[i])
		if rec.Type != "access" || ids[rec.ID] {
			t.Errorf("record %d: type %q, ID %q seen before", i, rec.Type, rec.ID)
		}
		ids[rec.ID] = true
		if (rec.Outcome == "invalid") != (rec.Error != "") {
			t.Errorf("record %d: outcome %q with error %q", i, rec.Outcome, rec.Error)
		}
	}
}
