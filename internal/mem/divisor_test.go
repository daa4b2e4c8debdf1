package mem

import (
	"math"
	"math/rand"
	"testing"
)

// checkDivisor compares Div and Mod with the hardware operators.
func checkDivisor(t *testing.T, d int, n uint64) {
	t.Helper()
	r := NewDivisor(d)
	if q, want := r.Div(n), n/uint64(d); q != want {
		t.Fatalf("Divisor(%d).Div(%d) = %d, want %d", d, n, q, want)
	}
	if m, want := r.Mod(n), n%uint64(d); m != want {
		t.Fatalf("Divisor(%d).Mod(%d) = %d, want %d", d, n, m, want)
	}
	if q, m := r.DivMod(n); q != n/uint64(d) || m != n%uint64(d) {
		t.Fatalf("Divisor(%d).DivMod(%d) = (%d, %d), want (%d, %d)", d, n, q, m, n/uint64(d), n%uint64(d))
	}
}

// TestDivisorExhaustiveSmall covers every divisor the simulator uses (widths,
// channel, row and bank counts are all at most 1024) against every 16-bit
// operand, which includes the whole domain of Advance's n*256 for a uint8
// NonMem.
func TestDivisorExhaustiveSmall(t *testing.T) {
	maxD := 1024
	if testing.Short() {
		maxD = 64
	}
	for d := 1; d <= maxD; d++ {
		r := NewDivisor(d)
		for n := uint64(0); n <= 257*256; n++ {
			if r.Div(n) != n/uint64(d) || r.Mod(n) != n%uint64(d) {
				checkDivisor(t, d, n) // reports the mismatch
			}
		}
	}
}

// TestDivisorBoundaries probes where the reciprocal is most strained:
// operands one either side of a multiple of d, of 2³² and of the fast path's
// limit m, and at the top of the 64-bit range where Div falls back to dividing.
func TestDivisorBoundaries(t *testing.T) {
	divisors := []int{1, 2, 3, 5, 6, 7, 8, 12, 128, 255, 256, 257, 352, 1023, 1024,
		65535, 65536, 65537, 1<<31 - 1, 1 << 31, 1<<31 + 1, math.MaxUint32 - 1, math.MaxUint32,
		1 << 32, 1<<32 + 1, 1<<62 - 1, 1 << 62, math.MaxInt64}
	for _, d := range divisors {
		m := uint64(math.MaxUint64) / uint64(d)
		operands := []uint64{0, 1, uint64(d) - 1, uint64(d), uint64(d) + 1,
			math.MaxUint32 - 1, math.MaxUint32, 1 << 32, 1<<32 + 1,
			m - 2, m - 1, m, m + 1, m + 2,
			math.MaxUint64 - 1, math.MaxUint64, 1 << 63, 1<<63 - 1}
		for k := uint64(1); k < 64; k += 7 { // multiples of d up the range
			if mult := uint64(d) << k; mult>>k == uint64(d) {
				operands = append(operands, mult-1, mult, mult+1)
			}
		}
		// The largest multiple of d the fast path may see, and its neighbours.
		top := (m - 1) / uint64(d) * uint64(d)
		operands = append(operands, top-1, top, top+1)
		for _, n := range operands {
			checkDivisor(t, d, n)
		}
	}
}

func TestDivisorRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 2_000_000; i++ {
		d := int(rng.Uint32())
		if i%3 == 0 {
			d = 1 + rng.Intn(1024)
		}
		if d == 0 {
			d = 1
		}
		n := uint64(rng.Uint32())
		switch i % 4 {
		case 1:
			n = rng.Uint64()
		case 2: // a simulated line address: under 2⁴⁴ bytes per core, 64 cores
			n = rng.Uint64() >> 20
		}
		checkDivisor(t, d, n)
	}
}

func TestDivisorRejectsZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDivisor(0) did not panic")
		}
	}()
	NewDivisor(0)
}

func FuzzDivisor(f *testing.F) {
	f.Add(uint64(6), uint64(257*256))
	f.Add(uint64(1), uint64(math.MaxUint64))
	f.Add(uint64(3), uint64(math.MaxUint64/3))
	f.Add(uint64(1<<32-1), uint64(1<<32))
	f.Fuzz(func(t *testing.T, d, n uint64) {
		d &= math.MaxInt64 // NewDivisor takes an int
		if d == 0 {
			d = 1
		}
		checkDivisor(t, int(d), n)
	})
}
