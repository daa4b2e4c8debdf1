package workloads

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"testing"

	"streamline/internal/trace"
)

// traceDigest returns the SHA-256 of the trace file (header included) that
// holds the next n records of tr.
func traceDigest(t *testing.T, tr trace.Trace, n int) string {
	t.Helper()
	h := sha256.New()
	tw, err := trace.NewWriter(h)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r, ok := tr.Next()
		if !ok {
			t.Fatalf("trace ended after %d of %d records", i, n)
		}
		if err := tw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTraceDigestGolden pins the record stream of every registered workload.
// Each row of testdata/trace_digests.txt covers two whole laps plus 100k
// records, so it crosses two end-of-lap mutations. The file was generated
// from the whole-lap generators that preceded the streaming ones; a row moves
// only when a generator's output changes, which invalidates every recorded
// experiment number (see EXPERIMENTS.md).
func TestTraceDigestGolden(t *testing.T) {
	f, err := os.Open("testdata/trace_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	covered := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		var (
			name, want string
			fp         float64
			seed       int64
			n          int
		)
		if _, err := fmt.Sscan(line, &name, &fp, &seed, &n, &want); err != nil {
			t.Fatalf("bad golden row %q: %v", line, err)
		}
		covered[name]++
		if testing.Short() && seed != 1 {
			continue
		}
		t.Run(fmt.Sprintf("%s/%g/%d", name, fp, seed), func(t *testing.T) {
			t.Parallel()
			w, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if got := traceDigest(t, w.NewTrace(Scale{Footprint: fp}, seed), n); got != want {
				t.Errorf("digest of the first %d records is %s, want %s", n, got, want)
			}
		})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, w := range All() {
		if covered[w.Name] != 4 {
			t.Errorf("%s: %d golden rows, want 4 (two footprints, two seeds)", w.Name, covered[w.Name])
		}
	}
}
