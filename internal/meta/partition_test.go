package meta

import (
	"math/rand"
	"testing"

	"streamline/internal/mem"
)

func partCfg(mode PartitionMode, weight func(float64) float64) PartitionerConfig {
	return PartitionerConfig{
		Mode:            mode,
		Sizes:           []int{0, 64 << 10, 128 << 10},
		MaxBytes:        128 << 10,
		LLCWays:         16,
		MetaWaysPerSet:  8,
		EntriesPerBlock: 4,
		EpochAccesses:   4096,
		MetaWeight:      weight,
	}
}

// newPart builds a partitioner that samples every 4th set, so the short
// streams below profile enough sets to decide.
func newPart(mode PartitionMode, weight func(float64) float64) *Partitioner {
	p := NewPartitioner(partCfg(mode, weight))
	p.shift = 2
	return p
}

func TestPartitionerShrinksUnderPureDataUtility(t *testing.T) {
	p := newPart(SetMode, StreamlineMetaWeight)
	rng := rand.New(rand.NewSource(1))
	// Data with short stack distances (fits in few ways), no trigger reuse.
	for i := 0; i < 50000; i++ {
		set := (rng.Intn(64)) * 4 // sampled sets
		p.ObserveData(set, mem.Line(set*16+rng.Intn(12)))
		if size, changed := p.Tick(); changed && size == 0 {
			return // success: shrank to zero
		}
	}
	if p.Current() != 0 {
		t.Errorf("partition = %d under pure data utility, want 0", p.Current())
	}
}

func TestPartitionerGrowsUnderTriggerUtility(t *testing.T) {
	p := newPart(SetMode, StreamlineMetaWeight)
	p.ObserveAccuracy(0.95) // metadata hits score 8
	rng := rand.New(rand.NewSource(2))
	// Reused triggers (small per-set population, re-touched) and data with
	// huge stack distances (caching it is hopeless).
	for i := 0; i < 50000; i++ {
		set := rng.Intn(64) * 4
		p.ObserveTrigger(set, mem.Line(set*100+rng.Intn(16)))
		p.ObserveData(set, mem.Line(1_000_000+i)) // never reused
		p.Tick()
	}
	if p.Current() != 128<<10 {
		t.Errorf("partition = %d under pure trigger utility, want max", p.Current())
	}
}

func TestAccuracyScalingChangesDecision(t *testing.T) {
	// With the Streamline weighting, low accuracy devalues metadata; the
	// equal weighting (Triangel) keeps it. Construct a marginal case:
	// trigger hits and data hits both present.
	run := func(weight func(float64) float64, acc float64) int {
		p := newPart(SetMode, weight)
		p.ObserveAccuracy(acc)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 60000; i++ {
			set := rng.Intn(64) * 4
			p.ObserveTrigger(set, mem.Line(set*100+rng.Intn(24)))
			// Data reused at stack distance ~10: kept only with 16 ways.
			p.ObserveData(set, mem.Line(set*16+rng.Intn(10)))
			p.Tick()
		}
		return p.Current()
	}
	lowAcc := run(StreamlineMetaWeight, 0.05)
	highAcc := run(StreamlineMetaWeight, 0.97)
	if lowAcc >= highAcc && highAcc != lowAcc {
		t.Errorf("low accuracy chose %d, high accuracy %d", lowAcc, highAcc)
	}
	if highAcc == 0 {
		t.Error("high accuracy should retain a metadata partition")
	}
	if lowAcc != 0 {
		t.Errorf("low accuracy partition = %d, want 0 (data wins)", lowAcc)
	}
}

func TestStreamlineMetaWeightBands(t *testing.T) {
	// The Section IV-E4 increment table.
	cases := []struct {
		acc  float64
		want float64
	}{
		{0.05, 1}, {0.2, 2}, {0.4, 3}, {0.6, 4}, {0.8, 6}, {0.92, 7}, {0.99, 8},
	}
	for _, c := range cases {
		if got := StreamlineMetaWeight(c.acc); got != c.want {
			t.Errorf("weight(%.2f) = %v, want %v", c.acc, got, c.want)
		}
	}
	if EqualMetaWeight(0.1) != 16 || EqualMetaWeight(0.9) != 16 {
		t.Error("EqualMetaWeight should be constant 16")
	}
}

func TestLRUStackDistances(t *testing.T) {
	s := newLRUStack(4)
	if pos := s.touch(1); pos != -1 {
		t.Errorf("cold touch pos = %d, want -1", pos)
	}
	s.touch(2)
	s.touch(3)
	// 1 is now at depth 2.
	if pos := s.touch(1); pos != 2 {
		t.Errorf("reuse pos = %d, want 2", pos)
	}
	// Overflow evicts the LRU entry.
	s.touch(4)
	s.touch(5)
	if pos := s.touch(2); pos != -1 {
		t.Errorf("evicted entry pos = %d, want -1 (miss)", pos)
	}
}

func TestTickHonorsEpoch(t *testing.T) {
	p := newPart(SetMode, EqualMetaWeight)
	for i := 0; i < 100; i++ {
		if _, changed := p.Tick(); changed {
			t.Fatal("Tick decided before any observations")
		}
	}
}

func TestWayModeCapacityScaling(t *testing.T) {
	// In way mode, smaller sizes shrink per-set capacity; trigger hits at
	// small sizes must be no greater than at large sizes.
	p := newPart(WayMode, EqualMetaWeight)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		set := rng.Intn(64) * 4
		p.ObserveTrigger(set, mem.Line(set*100+rng.Intn(40)))
	}
	small := p.trigHits(64 << 10)
	big := p.trigHits(128 << 10)
	if small > big {
		t.Errorf("way-mode trigger hits at half size (%v) > at full (%v)", small, big)
	}
	if p.trigHits(0) != 0 {
		t.Error("zero partition should have zero trigger hits")
	}
}
