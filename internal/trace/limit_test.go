package trace

import (
	"testing"

	"streamline/internal/mem"
)

// Wrapper composition: Limit over Looping and Looping over Limit.

func TestLimitOverLooping(t *testing.T) {
	recs := []Record{{PC: 1, Addr: 64, NonMem: 1}, {PC: 1, Addr: 128, NonMem: 1}}
	tr := NewLimit(NewLooping(NewSlice(recs)), 11)
	n := 0
	for {
		_, ok := tr.Next()
		if !ok {
			break
		}
		n++
	}
	// 2 instructions per record: stops once used >= 11 -> 6 records.
	if n != 6 {
		t.Errorf("records = %d, want 6", n)
	}
}

func TestLoopingOverLimitIsBounded(t *testing.T) {
	// The inverse composition: looping over a limited trace replays the
	// same budget forever.
	recs := []Record{{PC: 1, Addr: 64}, {PC: 1, Addr: 128}, {PC: 1, Addr: 192}}
	tr := NewLooping(NewLimit(NewSlice(recs), 2))
	seen := map[mem.Addr]int{}
	for i := 0; i < 10; i++ {
		r, ok := tr.Next()
		if !ok {
			t.Fatal("looping limited trace ended")
		}
		seen[r.Addr]++
	}
	if seen[192] != 0 {
		t.Error("limit did not truncate the inner trace")
	}
	if seen[64] != 5 || seen[128] != 5 {
		t.Errorf("unexpected replay distribution: %v", seen)
	}
}
