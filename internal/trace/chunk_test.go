package trace

import (
	"bytes"
	"math/rand"
	"testing"
)

// nextOnly hides every capability of a trace but Next and Reset, which sends
// Looping down its fallback.
type nextOnly struct{ Trace }

// drainNext reads n records from a fresh Looping over tr through Next.
func drainNext(t *testing.T, tr Trace, n int) ([]Record, int) {
	t.Helper()
	l := NewLooping(tr)
	out := make([]Record, 0, n)
	for len(out) < n {
		r, ok := l.Next()
		if !ok {
			t.Fatalf("Next ended after %d of %d records", len(out), n)
		}
		out = append(out, r)
	}
	return out, l.Laps
}

// drainMixed reads n records from a fresh Looping over tr, taking each next
// step through NextChunk or, one time in nextOdds (0: never), through Next.
// The last run is cut at n, so Laps counts the same wraps Next would have
// made: a run never crosses a lap.
func drainMixed(t *testing.T, tr Trace, n, nextOdds int, rng *rand.Rand) ([]Record, int) {
	t.Helper()
	l := NewLooping(tr)
	out := make([]Record, 0, n)
	for len(out) < n {
		if nextOdds > 0 && rng.Intn(nextOdds) == 0 {
			r, ok := l.Next()
			if !ok {
				t.Fatalf("Next ended after %d of %d records", len(out), n)
			}
			out = append(out, r)
			continue
		}
		c := l.NextChunk()
		if len(c) == 0 {
			t.Fatalf("NextChunk ended after %d of %d records", len(out), n)
		}
		if len(c) > n-len(out) {
			c = c[:n-len(out)]
		}
		out = append(out, c...) // copied: the run dies at the next call
	}
	return out, l.Laps
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

// TestChunksEqualNextStream checks, for every way a simulation can receive a
// trace, that the concatenated runs are the Next stream with the same lap
// count — chunks alone and interleaved with Next, over the zero-copy Slice
// and over the fallback that serves a Next-only wrapper, a Limit and a Reader.
func TestChunksEqualNextStream(t *testing.T) {
	recs := sampleRecords(150, 7) // not a multiple of the fallback's run
	var file bytes.Buffer
	w, err := NewWriter(&file)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var limitInstr uint64
	for _, r := range recs[:100] {
		limitInstr += r.Instructions()
	}
	inners := map[string]func() Trace{
		"slice":     func() Trace { return NewSlice(recs) },
		"next-only": func() Trace { return nextOnly{NewSlice(recs)} },
		"limit":     func() Trace { return NewLimit(NewSlice(recs), limitInstr) },
		"reader": func() Trace {
			r, err := NewReader(bytes.NewReader(file.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			return r
		},
		"one-record": func() Trace { return NewSlice(recs[:1]) },
	}
	const n = 1000 // several laps of each
	for name, mk := range inners {
		want, wantLaps := drainNext(t, mk(), n)
		if name != "limit" && name != "one-record" {
			for i := range want {
				if want[i] != recs[i%len(recs)] {
					t.Fatalf("%s: Next stream record %d is not the source's", name, i)
				}
			}
		}
		got, laps := drainMixed(t, mk(), n, 0, nil)
		sameRecords(t, name+" chunked", got, want)
		if laps != wantLaps {
			t.Errorf("%s chunked: Laps = %d, want %d", name, laps, wantLaps)
		}
		rng := rand.New(rand.NewSource(3))
		for _, odds := range []int{2, 5} {
			got, laps = drainMixed(t, mk(), n, odds, rng)
			sameRecords(t, name+" interleaved", got, want)
			if laps != wantLaps {
				t.Errorf("%s interleaved: Laps = %d, want %d", name, laps, wantLaps)
			}
		}
	}
}

// TestSliceChunkIsZeroCopy: a Slice hands out its own backing array, once,
// and a Looping over it forwards that run untouched.
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
	l := NewLooping(NewSlice(recs))
	if c = l.NextChunk(); len(c) != 10 || &c[0] != &recs[0] {
		t.Fatal("Looping over a Slice did not forward the Slice's own run")
	}
	if c = l.NextChunk(); len(c) != 10 || &c[0] != &recs[0] || l.Laps != 1 {
		t.Fatalf("second lap: %d records, Laps = %d", len(c), l.Laps)
	}
	if l.buf != nil {
		t.Error("Looping over a Chunker allocated its fallback buffer")
	}
}

// TestLoopingFallbackBuffer: the buffer appears on first use, is reused, and
// NextChunk allocates nothing afterwards.
func TestLoopingFallbackBuffer(t *testing.T) {
	l := NewLooping(nextOnly{NewSlice(sampleRecords(1000, 9))})
	if l.buf != nil {
		t.Fatal("fallback buffer allocated before first use")
	}
	first := l.NextChunk()
	if len(first) == 0 || len(first) > 64 {
		t.Fatalf("first fallback run has %d records", len(first))
	}
	if allocs := testing.AllocsPerRun(200, func() { l.NextChunk() }); allocs != 0 {
		t.Errorf("NextChunk allocates %.1f times per call in steady state", allocs)
	}
}

// TestLoopingChunkEmptyInner: like Next, NextChunk ends only on an empty
// inner trace, after one wrap.
func TestLoopingChunkEmptyInner(t *testing.T) {
	for _, inner := range []Trace{NewSlice(nil), nextOnly{NewSlice(nil)}} {
		if c := NewLooping(inner).NextChunk(); len(c) != 0 {
			t.Errorf("NextChunk over an empty %T returned %d records", inner, len(c))
		}
	}
}
