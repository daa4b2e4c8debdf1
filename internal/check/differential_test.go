package check

import (
	"math/rand"
	"testing"

	"streamline/internal/cache"
	"streamline/internal/mem"
)

// shadowGeometry derives a valid shadowed-pair geometry from two selector
// bytes (mirroring the cache package's property-test idiom).
func shadowGeometry(setSel, waySel uint8) cache.Config {
	return cache.Config{
		Name:    "diff",
		Sets:    4 << (setSel % 5), // 4..64, power of two
		Ways:    1 + int(waySel%8), // 1..8
		Latency: 10,
	}
}

// applyOps replays an encoded operation stream through the shadowed pair,
// comparing full state periodically and at the end. Three bytes per op:
// opcode/clock-advance, line selector (an 8-bit space, forcing heavy set
// and line collisions), and an operand (fill source, readiness delay,
// reservation width). Every byte sequence is a valid program — the decoder
// is total, so the fuzzer can explore freely.
func applyOps(sh *Shadow, data []byte) {
	var now uint64
	op := 0
	for i := 0; i+2 < len(data); i += 3 {
		b0, b1, b2 := data[i], data[i+1], data[i+2]
		now += uint64(b0 >> 4 & 3) // advance 0..3 cycles
		l := mem.Line(b1)
		addr := mem.AddrOf(l)
		switch b0 % 8 {
		case 0:
			sh.Lookup(now, mem.Access{PC: 0x400100, Addr: addr, Kind: mem.Load})
		case 1:
			sh.Lookup(now, mem.Access{PC: 0x400104, Addr: addr, Kind: mem.Store})
		case 2:
			sh.Lookup(now, mem.Access{Addr: addr, Kind: mem.Prefetch})
		case 3:
			src := cache.Source(1 + b2%3) // SrcL1, SrcL2, SrcTemporal
			sh.Fill(mem.Access{Addr: addr, Kind: mem.Prefetch}, now+uint64(b2%64), src)
		case 4:
			kind := mem.Load
			switch b2 % 3 {
			case 1:
				kind = mem.Store
			case 2:
				kind = mem.Writeback
			}
			sh.Fill(mem.Access{PC: 0x400108, Addr: addr, Kind: kind}, now+uint64(b2%32), cache.SrcDemand)
		case 5:
			sh.MarkDirty(l)
		case 6:
			if b2&1 == 0 {
				sh.Probe(l)
			} else {
				sh.LookupResident(now, mem.Access{PC: 0x40010c, Addr: addr, Kind: mem.Load})
			}
		case 7:
			set := int(b1) % sh.Ref.sets
			ways := int(b2) % (sh.Ref.ways + 1)
			sh.Reserve(set, ways)
		}
		if op++; op%64 == 0 {
			sh.CheckState()
		}
	}
	sh.CheckState()
}

// failOnMismatch reports every recorded divergence as a test failure.
func failOnMismatch(t *testing.T, sh *Shadow) {
	t.Helper()
	for _, m := range sh.Mismatches() {
		t.Errorf("divergence: %s", m)
	}
	if t.Failed() {
		t.Logf("after %d ops", sh.Ops())
	}
}

// TestDifferentialRandomStreams replays long random operation streams
// through the shadowed pair across a spread of geometries. Any divergence
// between internal/cache and the reference LRU semantics fails the test
// with the op sequence position.
func TestDifferentialRandomStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		cfg := shadowGeometry(uint8(rng.Uint32()), uint8(rng.Uint32()))
		sh := NewShadow(cfg)
		data := make([]byte, 3*2000)
		rng.Read(data)
		applyOps(sh, data)
		failOnMismatch(t, sh)
		if t.Failed() {
			t.Fatalf("trial %d, geometry %d sets x %d ways", trial, cfg.Sets, cfg.Ways)
		}
	}
}

// TestDifferentialReserveChurn focuses on the reservation/flush interplay:
// repeated repartitioning while prefetched and dirty lines are resident is
// where lifecycle accounting is easiest to leak (the cache.Reserve bug this
// suite flagged lived exactly there).
func TestDifferentialReserveChurn(t *testing.T) {
	sh := NewShadow(cache.Config{Name: "churn", Sets: 8, Ways: 4, Latency: 10})
	rng := rand.New(rand.NewSource(2))
	var now uint64
	for i := 0; i < 5000; i++ {
		now += uint64(rng.Intn(3))
		l := mem.Line(rng.Intn(128))
		switch rng.Intn(5) {
		case 0:
			sh.Lookup(now, mem.Access{PC: 0x400200, Addr: mem.AddrOf(l), Kind: mem.Load})
		case 1:
			sh.Fill(mem.Access{Addr: mem.AddrOf(l), Kind: mem.Prefetch},
				now+uint64(rng.Intn(100)), cache.SrcTemporal)
		case 2:
			sh.Fill(mem.Access{PC: 0x400204, Addr: mem.AddrOf(l), Kind: mem.Store},
				now+20, cache.SrcDemand)
		case 3:
			sh.Reserve(rng.Intn(8), rng.Intn(5))
		case 4:
			sh.MarkDirty(l)
		}
		if i%32 == 0 {
			sh.CheckState()
		}
	}
	sh.CheckState()
	failOnMismatch(t, sh)
}

// missThenFill holds programs in FuzzDifferentialCache's encoding (geometry
// bytes 0, 1: four sets of two ways; then three bytes per op, see applyOps)
// that run a tag walk missing line 4 and later fill it, with other
// operations in between. The cache's fill skips its own walk for the line
// the last missing walk recorded, so each ordering checks that record is
// dropped or kept exactly when it should be.
var missThenFill = []struct {
	name string
	prog []byte
}{
	{"fill another line of the set in between", []byte{0, 1,
		0, 4, 0, // Lookup 4: miss
		4, 8, 0, // Fill 8, set 0
		4, 4, 0, // Fill 4
		0, 4, 0, 0, 8, 0, // Lookup 4 and 8: both hit
		4, 12, 0, 0, 4, 0, 0, 8, 0}}, // Fill 12 evicts 4, the LRU way
	{"reserve flush in between", []byte{0, 1,
		4, 0, 1, // Fill 0 as a store: dirty
		0, 4, 0, // Lookup 4: miss
		7, 0, 1, // Reserve 1 way of set 0: flushes line 0
		4, 4, 0, // Fill 4 into the one data way
		0, 4, 0, 0, 0, 0, // Lookup 4 hits, 0 misses
		7, 0, 0, 4, 0, 0, 0, 0, 0}}, // release, refill 0
	{"fill twice: the second is a refresh", []byte{0, 1,
		0, 4, 0, // Lookup 4: miss
		3, 4, 9, // Fill 4 as an L1 prefetch, ready 9 cycles on
		4, 4, 1, // Fill 4 again as a store: a refresh
		0, 4, 0, // Lookup 4: a useful prefetch, now dirty
		4, 8, 0, 4, 12, 0, 4, 16, 0}}, // evict 4: one dirty victim
	{"probe miss, resident lookup of another line, then fill", []byte{0, 1,
		4, 8, 0, // Fill 8
		6, 4, 0, // Probe 4: miss
		6, 8, 1, // LookupResident 8: hit
		6, 12, 1, // LookupResident 12: miss
		4, 4, 0, // Fill 4
		0, 4, 0, 0, 8, 0, 0, 12, 0}},
}

// TestDifferentialMissThenFill replays the miss-then-fill orderings through
// the shadowed pair.
func TestDifferentialMissThenFill(t *testing.T) {
	for _, tc := range missThenFill {
		sh := NewShadow(shadowGeometry(tc.prog[0], tc.prog[1]))
		applyOps(sh, tc.prog[2:])
		if sh.Real.OccupiedLines() == 0 {
			t.Errorf("%s: the program left the cache empty", tc.name)
		}
		for _, m := range sh.Mismatches() {
			t.Errorf("%s: divergence: %s", tc.name, m)
		}
	}
}

// TestStackInclusion verifies the LRU stack property on the real cache: for
// a fixed set count, demand misses are monotonically non-increasing in
// associativity. LRU is a stack algorithm, so a larger cache's content is a
// superset of a smaller one's at every step — more ways can only remove
// misses. A violation means replacement is not actually LRU.
func TestStackInclusion(t *testing.T) {
	const sets = 16
	rng := rand.New(rand.NewSource(3))
	// A mix of looped sequential runs and random pointer-chase re-references,
	// so every associativity sees both streaming evictions and reuse.
	accesses := make([]mem.Line, 0, 20000)
	for len(accesses) < cap(accesses) {
		switch rng.Intn(3) {
		case 0:
			base := mem.Line(rng.Intn(512))
			for i := 0; i < 64; i++ {
				accesses = append(accesses, base+mem.Line(i))
			}
		case 1:
			accesses = append(accesses, mem.Line(rng.Intn(64)))
		case 2:
			accesses = append(accesses, mem.Line(rng.Intn(2048)))
		}
	}

	var prev uint64
	for ways := 1; ways <= 8; ways++ {
		c := cache.New(cache.Config{Name: "stack", Sets: sets, Ways: ways, Latency: 10})
		var now uint64
		for _, l := range accesses {
			now++
			if !c.Lookup(now, mem.Access{PC: 0x400300, Addr: mem.AddrOf(l), Kind: mem.Load}).Hit {
				c.Fill(mem.Access{PC: 0x400300, Addr: mem.AddrOf(l), Kind: mem.Load}, now, cache.SrcDemand)
			}
		}
		misses := c.Stats.DemandMisses
		if ways > 1 && misses > prev {
			t.Errorf("stack inclusion violated: %d ways yields %d misses, %d ways yielded %d",
				ways, misses, ways-1, prev)
		}
		prev = misses
	}
}

// TestShadowDetectsDivergence proves the differ itself works: a shadowed
// pair whose reference is perturbed must report mismatches (guards against
// a vacuously green oracle).
func TestShadowDetectsDivergence(t *testing.T) {
	sh := NewShadow(cache.Config{Name: "neg", Sets: 4, Ways: 2, Latency: 10})
	l := mem.Line(7)
	// Install via the real cache only, bypassing the shadowed entry point.
	sh.Real.Fill(mem.Access{Addr: mem.AddrOf(l), Kind: mem.Load}, 0, cache.SrcDemand)
	sh.CheckState()
	if len(sh.Mismatches()) == 0 {
		t.Fatal("CheckState missed a content divergence")
	}

	sh2 := NewShadow(cache.Config{Name: "neg2", Sets: 4, Ways: 2, Latency: 10})
	sh2.Ref.Stats.DemandAccesses++
	sh2.Lookup(0, mem.Access{Addr: mem.AddrOf(l), Kind: mem.Load})
	sh2.CheckState()
	if len(sh2.Mismatches()) == 0 {
		t.Fatal("CheckState missed a stats divergence")
	}
}
