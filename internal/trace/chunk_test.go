package trace

import (
	"math/rand"
	"testing"
)

// drain reads n records from a fresh Slice over recs, taking each next step
// through NextChunk or, one time in nextOdds (0: never), through Next, and
// rewinding the Slice at its end. The last run is cut at n.
func drain(t *testing.T, recs []Record, n, nextOdds int, rng *rand.Rand) []Record {
	t.Helper()
	s := NewSlice(recs)
	out := make([]Record, 0, n)
	for len(out) < n {
		if nextOdds > 0 && rng.Intn(nextOdds) == 0 {
			r, ok := s.Next()
			if !ok {
				s.Reset()
				continue
			}
			out = append(out, r)
			continue
		}
		c := s.NextChunk()
		if len(c) == 0 {
			s.Reset()
			continue
		}
		if len(c) > n-len(out) {
			c = c[:n-len(out)]
		}
		out = append(out, c...) // copied: the run dies at the next call
	}
	return out
}

// TestChunksEqualNextStream: the concatenated runs of a Slice, read alone and
// interleaved with Next across several rewinds, are its Next stream.
func TestChunksEqualNextStream(t *testing.T) {
	for _, recs := range [][]Record{sampleRecords(150, 7), sampleRecords(1, 8)} {
		const n = 1000 // several laps
		want := make([]Record, n)
		for i := range want {
			want[i] = recs[i%len(recs)]
		}
		sameRecords(t, "chunked", drain(t, recs, n, 0, nil), want)
		rng := rand.New(rand.NewSource(3))
		for _, odds := range []int{2, 5} {
			sameRecords(t, "interleaved", drain(t, recs, n, odds, rng), want)
		}
	}
}

func sameRecords(t *testing.T, what string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d is %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestSliceChunkIsZeroCopy: a Slice hands out its own backing array, once
// per lap.
func TestSliceChunkIsZeroCopy(t *testing.T) {
	recs := sampleRecords(10, 8)
	s := NewSlice(recs)
	s.Next()
	c := s.NextChunk()
	if len(c) != 9 || &c[0] != &recs[1] {
		t.Fatalf("NextChunk after one Next returned %d records at %p, want 9 at %p", len(c), &c[0], &recs[1])
	}
	if c = s.NextChunk(); len(c) != 0 {
		t.Fatalf("NextChunk at end of trace returned %d records", len(c))
	}
	if _, ok := s.Next(); ok {
		t.Fatal("Next after the last chunk returned a record")
	}
	s.Reset()
	if c = s.NextChunk(); len(c) != 10 || &c[0] != &recs[0] {
		t.Fatal("NextChunk after Reset did not return the whole backing array")
	}
	if c = NewSlice(nil).NextChunk(); len(c) != 0 {
		t.Fatalf("NextChunk over an empty Slice returned %d records", len(c))
	}
}
