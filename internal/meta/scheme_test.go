package meta

import (
	"math/rand"
	"testing"

	"streamline/internal/mem"
)

// Tests for the remaining Table I scheme behaviors and partitioning corner
// cases not covered by store_test.go.

func TestAllSchemeNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, filtered := range []bool{false, true} {
		for _, tagged := range []bool{false, true} {
			for _, setPart := range []bool{false, true} {
				st := NewStore(StoreConfig{
					Format: Stream, StreamLength: 4,
					Filtered: filtered, Tagged: tagged, SetPartitioned: setPart,
					MetaWaysPerSet: 8, MaxBytes: 128 << 10,
				}, llc2MB())
				n := st.SchemeName()
				if seen[n] {
					t.Errorf("duplicate scheme name %q", n)
				}
				seen[n] = true
			}
		}
	}
	if len(seen) != 8 {
		t.Errorf("%d schemes, want 8", len(seen))
	}
}

func TestHybridIdentityAtHalfSize(t *testing.T) {
	// At a shrink factor of 2 there is nothing to split: hybrid equals
	// pure set-partitioning.
	mk := func(hybrid bool) *Store {
		cfg := streamlineConfig()
		cfg.Hybrid = hybrid
		s := NewStore(cfg, llc2MB())
		s.Resize(512 << 10)
		return s
	}
	a, b := mk(false), mk(true)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		tr := mem.Line(rng.Uint64() >> 16)
		if a.WouldFilter(tr) != b.WouldFilter(tr) {
			t.Fatalf("hybrid differs from pure at half size for trigger %d", tr)
		}
	}
}

func TestResizeToZeroAndBack(t *testing.T) {
	s := NewStore(streamlineConfig(), llc2MB())
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		s.Insert(0, 1, Entry{Trigger: mem.Line(rng.Uint64() >> 16),
			Targets: []mem.Line{1, 2, 3, 4}})
	}
	s.Resize(0)
	if s.SizeBytes() != 0 {
		t.Errorf("size after Resize(0) = %d", s.SizeBytes())
	}
	if s.Occupancy() != 0 {
		t.Errorf("occupancy after Resize(0) = %d", s.Occupancy())
	}
	// Lookups and inserts at size zero are all filtered.
	if _, ok, _ := s.Lookup(0, 1, 123); ok {
		t.Error("lookup hit in a zero-size store")
	}
	before := s.Stats.FilteredInserts
	s.Insert(0, 1, Entry{Trigger: 9, Targets: []mem.Line{1, 2, 3, 4}})
	if s.Stats.FilteredInserts != before+1 {
		t.Error("insert into zero-size store not filtered")
	}
	// Growing back restores service.
	s.Resize(1 << 20)
	s.Insert(0, 1, Entry{Trigger: 9, Targets: []mem.Line{1, 2, 3, 4}})
	if _, ok, _ := s.Lookup(0, 1, 9); !ok {
		t.Error("store unusable after growing back from zero")
	}
}

func TestResizeAboveMaxClamps(t *testing.T) {
	s := NewStore(streamlineConfig(), llc2MB())
	s.Resize(64 << 20)
	if s.SizeBytes() != 1<<20 {
		t.Errorf("size after oversize resize = %d, want max 1MB", s.SizeBytes())
	}
}

func TestConfidenceBitLifecycle(t *testing.T) {
	s := NewStore(streamlineConfig(), llc2MB())
	e := Entry{Trigger: 77, Targets: []mem.Line{1, 2, 3, 4}}
	if _, conf := s.Insert(0, 1, e); conf {
		t.Error("first insert reported confirmed")
	}
	if _, conf := s.Insert(0, 1, e); !conf {
		t.Error("identical re-insert did not confirm")
	}
	got, _, _ := s.Lookup(0, 1, 77)
	if !got.Conf() {
		t.Error("lookup does not see the confirmed bit")
	}
	e2 := Entry{Trigger: 77, Targets: []mem.Line{9, 8, 7, 6}}
	if _, conf := s.Insert(0, 1, e2); conf {
		t.Error("different targets kept confidence")
	}
	got, _, _ = s.Lookup(0, 1, 77)
	if got.Conf() {
		t.Error("confidence bit not cleared by a retargeting store")
	}
}

func TestWayModeGranularity(t *testing.T) {
	// Way-partitioned sizes step in whole ways across all LLC sets.
	s := NewStore(triangelConfig(), llc2MB())
	s.Resize(300 << 10) // not a multiple of 128KB (2048 sets x 64B)
	if s.SizeBytes()%(2048*64) != 0 {
		t.Errorf("way-mode size %d not way-granular", s.SizeBytes())
	}
}
