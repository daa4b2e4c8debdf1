package trace

import (
	"math/rand"
	"testing"

	"streamline/internal/mem"
)

func sampleRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			PC:            mem.PC(rng.Uint64()),
			Addr:          mem.Addr(rng.Uint64()),
			IsWrite:       rng.Intn(2) == 0,
			DependsOnPrev: rng.Intn(3) == 0,
			NonMem:        uint8(rng.Intn(256)),
		}
	}
	return recs
}

func TestSliceTrace(t *testing.T) {
	recs := sampleRecords(10, 1)
	tr := NewSlice(recs)
	for i := 0; i < 2; i++ { // two passes exercise Reset
		for j, want := range recs {
			got, ok := tr.Next()
			if !ok {
				t.Fatalf("pass %d: Next() ended early at %d", i, j)
			}
			if got != want {
				t.Fatalf("pass %d record %d: got %+v want %+v", i, j, got, want)
			}
		}
		if _, ok := tr.Next(); ok {
			t.Fatal("Next() returned a record past the end")
		}
		tr.Reset()
	}
}

func TestRecordInstructions(t *testing.T) {
	if got := (Record{NonMem: 0}).Instructions(); got != 1 {
		t.Errorf("Instructions() = %d, want 1", got)
	}
	if got := (Record{NonMem: 255}).Instructions(); got != 256 {
		t.Errorf("Instructions() = %d, want 256", got)
	}
}
