package serve

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// serveOnce runs one /simulate request through the handler in process.
func serveOnce(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/simulate", strings.NewReader(body)))
	return rec
}

// TestMemoRespelledBody: the memo keys on exact bytes, so a respelling of a
// seen body (reordered keys, extra whitespace) is a second entry — with the
// same result key, so it is served from the memory tier.
func TestMemoRespelledBody(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	respelled := "{ \"metaKb\": 8, \"llcSets\": 16,\n\"measure\": 4000, \"warmup\": 1000, " +
		"\"footprint\": 0.02, \"temporal\": \"streamline\", \"workload\": \"sphinx06\" }"

	var bodies [][]byte
	for i, tc := range []struct{ body, tier string }{
		{tinyBody, "none"}, {tinyBody, "memory"}, {respelled, "memory"},
	} {
		rec := serveOnce(h, tc.body)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Streamd-Cache") != tc.tier {
			t.Fatalf("request %d: status %d tier %q, want 200/%s\n%s",
				i, rec.Code, rec.Header().Get("X-Streamd-Cache"), tc.tier, rec.Body)
		}
		bodies = append(bodies, rec.Body.Bytes())
	}
	if !bytes.Equal(bodies[0], bodies[1]) || !bytes.Equal(bodies[0], bodies[2]) {
		t.Error("replies differ")
	}
	if st := s.Status(); st.MemoHits != 1 || st.MemoEntries != 2 || st.Computed != 1 {
		t.Errorf("status: memoHits=%d memoEntries=%d computed=%d, want 1/2/1",
			st.MemoHits, st.MemoEntries, st.Computed)
	}
	a, b := s.memo.m[tinyBody], s.memo.m[respelled]
	if a.key == "" || a != b {
		t.Errorf("respelled body resolved to %+v, original to %+v", b, a)
	}
}

// TestMemoInvalidRequests: an invalid body is never memoized, so it is
// decoded on every request and answers the same bytes each time.
func TestMemoInvalidRequests(t *testing.T) {
	s := New(Config{})
	small := New(Config{MaxBodyBytes: 32})
	cases := []struct {
		s    *Server
		body string
	}{
		{s, `{"workload":"sph`},
		{s, `{"workload":"sphinx06","bogus":1}`},
		{s, `{"workload":"sphinx06"} {}`},
		{s, `{"workload":"nope"}`},
		{s, `{"workload":"sphinx06","cores":-3}`},
		{s, `{"workload":"sphinx06","llcSets":100}`},
		{s, ``},
		{small, tinyBody},
		{small, `{"workload":"sphinx06"}` + strings.Repeat(" ", 32)},
	}
	for _, tc := range cases {
		h := tc.s.Handler()
		first, second := serveOnce(h, tc.body), serveOnce(h, tc.body)
		if first.Code == http.StatusOK || first.Code != second.Code ||
			!bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
			t.Errorf("%q: answers %d %s then %d %s", tc.body,
				first.Code, first.Body, second.Code, second.Body)
		}
	}
	for _, srv := range []*Server{s, small} {
		if st := srv.Status(); st.MemoEntries != 0 || st.MemoHits != 0 || st.Computed != 0 {
			t.Errorf("status after invalid requests: memoEntries=%d memoHits=%d computed=%d, want 0/0/0",
				st.MemoEntries, st.MemoHits, st.Computed)
		}
	}
}

// TestMemoBounds: the memo holds at most memoMaxEntries bodies and clears
// when full, and a body over memoMaxBody bytes is resolved but never kept.
func TestMemoBounds(t *testing.T) {
	var m requestMemo
	m.m = make(map[string]resolved)
	body := func(seed int) []byte {
		return []byte(fmt.Sprintf(`{"workload":"sphinx06","seed":%d}`, seed))
	}
	resolve := func(b []byte) resolved {
		t.Helper()
		r, err := m.resolve(b)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for seed := 1; seed <= memoMaxEntries; seed++ {
		resolve(body(seed))
	}
	if m.len() != memoMaxEntries || m.hits.Load() != 0 {
		t.Fatalf("after %d distinct bodies: %d entries, %d hits", memoMaxEntries, m.len(), m.hits.Load())
	}
	resolve(body(1))
	if m.hits.Load() != 1 {
		t.Fatalf("a held body missed: %d hits", m.hits.Load())
	}
	resolve(body(memoMaxEntries + 1)) // the 4097th distinct body clears the memo
	if m.len() != 1 {
		t.Fatalf("after %d distinct bodies: %d entries, want 1", memoMaxEntries+1, m.len())
	}
	resolve(body(1))
	if m.len() != 2 || m.hits.Load() != 1 {
		t.Fatalf("after the clear: %d entries, %d hits; want 2 and 1", m.len(), m.hits.Load())
	}

	pad := func(n int) []byte {
		b := []byte(`{"workload":"sphinx06"}`)
		return append(b, bytes.Repeat([]byte{' '}, n-len(b))...)
	}
	over := pad(memoMaxBody + 1)
	if r := resolve(over); r != resolve(over) || r.id == "" {
		t.Fatalf("oversized body resolves to %+v", r)
	}
	if m.len() != 2 || m.hits.Load() != 1 {
		t.Errorf("a %d-byte body was memoized: %d entries, %d hits", len(over), m.len(), m.hits.Load())
	}
	resolve(pad(memoMaxBody))
	if m.len() != 3 {
		t.Errorf("a %d-byte body was not memoized: %d entries", memoMaxBody, m.len())
	}
}

// TestMemoConcurrentIdentical: identical requests racing through the
// handler share one resolution and one computation.
func TestMemoConcurrentIdentical(t *testing.T) {
	const n = 8
	s := New(Config{})
	h := s.Handler()
	start := make(chan struct{})
	recs := make([]*httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			recs[i] = serveOnce(h, tinyBody)
		}()
	}
	close(start)
	wg.Wait()
	for i, rec := range recs {
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), recs[0].Body.Bytes()) {
			t.Errorf("request %d: status %d, body differs from request 0", i, rec.Code)
		}
	}
	st := s.Status()
	if st.Computed != 1 || st.MemoryHits+st.Collapsed != n-1 || st.MemoEntries != 1 || st.MemoHits > n-1 {
		t.Errorf("status: computed=%d memoryHits=%d collapsed=%d memoEntries=%d memoHits=%d",
			st.Computed, st.MemoryHits, st.Collapsed, st.MemoEntries, st.MemoHits)
	}
}

// TestRequestIDMatchesSprintf: the appended request ID is the fmt form.
func TestRequestIDMatchesSprintf(t *testing.T) {
	s := New(Config{})
	for _, seq := range []uint64{0, 999999, 1000000, math.MaxUint64} {
		if got, want := s.requestID(seq), fmt.Sprintf("%s-%06d", s.boot, seq); got != want {
			t.Errorf("requestID(%d) = %q, want %q", seq, got, want)
		}
	}
}

// BenchmarkHandlerMemoryHit is a repeated request answered from the memory
// tier, measured in process through a recorder: the handler's own cost.
func BenchmarkHandlerMemoryHit(b *testing.B) {
	s := New(Config{})
	h := s.Handler()
	if rec := serveOnce(h, tinyBody); rec.Code != http.StatusOK {
		b.Fatalf("cold request: status %d", rec.Code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serveOnce(h, tinyBody); rec.Header().Get("X-Streamd-Cache") != "memory" {
			b.Fatal("not a memory hit")
		}
	}
}
