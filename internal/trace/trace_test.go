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

func TestLoopingWraps(t *testing.T) {
	recs := sampleRecords(3, 2)
	l := NewLooping(NewSlice(recs))
	for i := 0; i < 10; i++ {
		got, ok := l.Next()
		if !ok {
			t.Fatalf("looping trace ended at %d", i)
		}
		if want := recs[i%3]; got != want {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
	}
	if l.Laps != 3 {
		t.Errorf("Laps = %d, want 3", l.Laps)
	}
	l.Reset()
	if l.Laps != 0 {
		t.Errorf("Laps after Reset = %d, want 0", l.Laps)
	}
}

func TestLoopingEmpty(t *testing.T) {
	l := NewLooping(NewSlice(nil))
	if _, ok := l.Next(); ok {
		t.Fatal("looping over an empty trace should end")
	}
}

func TestLimitBudget(t *testing.T) {
	recs := make([]Record, 100)
	for i := range recs {
		recs[i] = Record{PC: 1, Addr: mem.Addr(i), NonMem: 4} // 5 instr each
	}
	lim := NewLimit(NewLooping(NewSlice(recs)), 23)
	var n, instr uint64
	for {
		r, ok := lim.Next()
		if !ok {
			break
		}
		n++
		instr += r.Instructions()
	}
	// Budget 23 with 5-instruction records: stops once used >= 23, so 5
	// records (25 instructions).
	if n != 5 || instr != 25 {
		t.Errorf("got %d records / %d instructions, want 5 / 25", n, instr)
	}
	lim.Reset()
	if r, ok := lim.Next(); !ok || r.Addr != 0 {
		t.Errorf("after Reset, first record = %+v, %v", r, ok)
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
