package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRateLimiterUnderCapacityIsFree(t *testing.T) {
	r := NewRateLimiter(64, 64)
	for i := 0; i < 64; i++ {
		if d := r.Charge(1000, 1); d != 0 {
			t.Fatalf("charge %d delayed %d under capacity", i, d)
		}
	}
	if d := r.Charge(1000, 1); d == 0 {
		t.Error("overflow charge not delayed")
	}
}

func TestRateLimiterSpillGrowsWithExcess(t *testing.T) {
	r := NewRateLimiter(64, 64)
	for i := 0; i < 64; i++ {
		r.Charge(0, 1)
	}
	d1 := r.Charge(0, 1)
	d2 := r.Charge(0, 1)
	if d2 <= d1 {
		t.Errorf("spill delays not increasing: %d then %d", d1, d2)
	}
}

func TestRateLimiterBucketsAreIndependentInTime(t *testing.T) {
	r := NewRateLimiter(64, 4)
	// Saturate the bucket at t=0.
	for i := 0; i < 10; i++ {
		r.Charge(0, 1)
	}
	// A different (much later) bucket is unaffected.
	if d := r.Charge(10_000, 1); d != 0 {
		t.Errorf("later bucket delayed %d by earlier saturation", d)
	}
	// And returning to a reused slot after wraparound resets it.
	if d := r.Charge(10_000+8*64, 1); d != 0 {
		t.Errorf("wrapped bucket delayed %d", d)
	}
}

func TestRateLimiterOutOfOrderTolerance(t *testing.T) {
	r := NewRateLimiter(64, 8)
	// Future-stamped work lands in its own bucket.
	for i := 0; i < 20; i++ {
		r.Charge(100_000, 1)
	}
	// Earlier-stamped accesses in a different bucket are unaffected.
	if d := r.Charge(500, 1); d != 0 {
		t.Errorf("earlier access delayed %d by future work", d)
	}
}

func TestRateLimiterVariableCosts(t *testing.T) {
	r := NewRateLimiter(128, 128)
	if d := r.Charge(0, 100); d != 0 {
		t.Errorf("first big charge delayed %d", d)
	}
	if d := r.Charge(0, 100); d == 0 {
		t.Error("second big charge should spill")
	}
}

func TestRateLimiterDelayNonNegativeProperty(t *testing.T) {
	f := func(times []uint32, cost uint8) bool {
		r := NewRateLimiter(64, 64)
		for _, tm := range times {
			d := r.Charge(uint64(tm), uint64(cost%16)+1)
			if d > 1<<32 {
				return false // delays must stay bounded by accumulated work
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// divisionLimiter is the limiter as it was written before the bucket width became
// a shift: the reference the shift form must agree with on every input.
type divisionLimiter struct {
	bucketCycles, capacity uint64
	epochs, load           [8]uint64
}

func (r *divisionLimiter) charge(now, cost uint64) uint64 {
	e := now / r.bucketCycles
	b := e % uint64(len(r.load))
	if r.epochs[b] != e {
		r.epochs[b] = e
		r.load[b] = 0
	}
	r.load[b] += cost
	if r.load[b] <= r.capacity {
		return 0
	}
	excess := r.load[b] - r.capacity
	return (e+1)*r.bucketCycles - now + excess*r.bucketCycles/r.capacity
}

func TestRateLimiterMatchesDivisionForm(t *testing.T) {
	// The three widths in the tree (cache ports, DRAM channels, DRAM banks)
	// with capacities that do and do not divide them.
	for _, g := range [][2]uint64{{64, 64}, {64, 192}, {128, 128}, {512, 512}, {64, 7}} {
		r := NewRateLimiter(g[0], g[1])
		ref := divisionLimiter{bucketCycles: g[0], capacity: g[1]}
		rng := rand.New(rand.NewSource(int64(g[0] + g[1])))
		now := uint64(0)
		for i := 0; i < 20000; i++ {
			// Mostly forward in small steps, sometimes far ahead or behind.
			switch rng.Intn(10) {
			case 0:
				now += uint64(rng.Intn(5000))
			case 1:
				now -= min(now, uint64(rng.Intn(300)))
			default:
				now += uint64(rng.Intn(4))
			}
			cost := uint64(1 + rng.Intn(40))
			if got, want := r.Charge(now, cost), ref.charge(now, cost); got != want {
				t.Fatalf("width %d capacity %d: Charge(%d, %d) = %d, division form gives %d",
					g[0], g[1], now, cost, got, want)
			}
		}
	}
}

func TestRateLimiterRejectsNonPowerOfTwoWidth(t *testing.T) {
	for _, w := range []uint64{0, 3, 96, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRateLimiter(%d, 8) did not panic", w)
				}
			}()
			NewRateLimiter(w, 8)
		}()
	}
}
