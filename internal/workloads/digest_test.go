package workloads

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"testing"

	"streamline/internal/trace"
)

// traceDigest returns the SHA-256 of the next n records read by next in the
// encoding the golden file was made with: an 8-byte header (magic "STLN",
// version 1, little-endian) and then 18 bytes per record — PC, address,
// flags (bit 0 store, bit 1 depends-on-previous), non-memory count.
func traceDigest(t *testing.T, next func() (trace.Record, bool), n int) string {
	t.Helper()
	h := sha256.New()
	buf := binary.LittleEndian.AppendUint32(nil, 0x53544c4e)
	h.Write(binary.LittleEndian.AppendUint32(buf, 1))
	for i := 0; i < n; i++ {
		r, ok := next()
		if !ok {
			t.Fatalf("trace ended after %d of %d records", i, n)
		}
		var flags byte
		if r.IsWrite {
			flags |= 1
		}
		if r.DependsOnPrev {
			flags |= 2
		}
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(r.PC))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Addr))
		h.Write(append(buf, flags, r.NonMem))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// chunkReader reads a trace through NextChunk, one run at a time. With mix set it takes 0 to 4 records through Next before each run,
// so runs start at every offset of the generator's chunk.
type chunkReader struct {
	tr    trace.Trace
	run   []trace.Record // unread rest of the last run; dies at the next call on tr
	mix   bool
	calls int
	nexts int // records still to take through Next before the next run
}

func (c *chunkReader) Next() (trace.Record, bool) {
	if len(c.run) == 0 {
		if c.nexts > 0 {
			c.nexts--
			return c.tr.Next()
		}
		if c.calls++; c.mix {
			c.nexts = c.calls % 5
		}
		if c.run = c.tr.NextChunk(); len(c.run) == 0 {
			return trace.Record{}, false
		}
	}
	r := c.run[0]
	c.run = c.run[1:]
	return r, true
}

// TestTraceDigestGolden pins the record stream of every registered workload.
// Each row of testdata/trace_digests.txt covers two whole laps plus 100k
// records, so it crosses two end-of-lap mutations. The file was generated
// from the whole-lap generators that preceded the streaming ones; a row moves
// only when a generator's output changes, which invalidates every recorded
// experiment number (see EXPERIMENTS.md). Every row is read three ways — through
// Next, through NextChunk, and through both interleaved — and all three must
// produce the pinned stream: the simulator reads runs, Analyze reads records.
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
			fresh := func() trace.Trace { return w.NewTrace(Scale{Footprint: fp}, seed) }
			for how, next := range map[string]func() (trace.Record, bool){
				"Next":        fresh().Next,
				"NextChunk":   (&chunkReader{tr: fresh()}).Next,
				"interleaved": (&chunkReader{tr: fresh(), mix: true}).Next,
			} {
				if got := traceDigest(t, next, n); got != want {
					t.Errorf("%s: digest of the first %d records is %s, want %s", how, n, got, want)
				}
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
