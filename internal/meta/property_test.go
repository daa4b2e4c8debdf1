package meta

import (
	"math/rand"
	"testing"
	"testing/quick"

	"streamline/internal/mem"
)

// Property-based tests over the metadata store: invariants that must hold
// for every partitioning scheme under arbitrary operation sequences.

// anyConfig derives a random (but valid) store configuration from fuzz
// inputs.
func anyConfig(filtered, tagged, setPart bool, sizeSel uint8) StoreConfig {
	return StoreConfig{
		Format:         Stream,
		StreamLength:   4,
		Filtered:       filtered,
		Tagged:         tagged,
		SetPartitioned: setPart,
		MetaWaysPerSet: 8,
		MaxBytes:       int(32+uint32(sizeSel)%97) << 10,
	}
}

func TestPropertyLookupAfterInsertFindsEntry(t *testing.T) {
	f := func(filtered, tagged, setPart bool, sizeSel uint8, trig uint32) bool {
		st := NewStore(anyConfig(filtered, tagged, setPart, sizeSel),
			&NullBridge{Sets: 256, Ways: 16})
		tr := mem.Line(trig)
		e := Entry{Trigger: tr, Targets: []mem.Line{1, 2, 3, 4}}
		st.Insert(0, 1, e)
		hit, ok, _ := st.Lookup(0, 1, tr)
		if st.WouldFilter(tr) {
			return !ok // filtered triggers are never stored
		}
		// The trigger hash can alias, but a lone insert must be found.
		return ok && len(hit.AppendTargets(nil)) == 4 && hit.First() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyOccupancyNeverExceedsCapacity(t *testing.T) {
	f := func(filtered, tagged, setPart bool, sizeSel uint8, seed int64) bool {
		st := NewStore(anyConfig(filtered, tagged, setPart, sizeSel),
			&NullBridge{Sets: 256, Ways: 16})
		capEntries := st.SizeBytes() / mem.LineSize * 4
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			tr := mem.Line(rng.Uint64() >> 20)
			st.Insert(0, 1, Entry{Trigger: tr, Targets: []mem.Line{1, 2, 3, 4}})
		}
		return st.Occupancy() <= capEntries
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyResizeNeverGrowsOccupancyAndStaysSound(t *testing.T) {
	f := func(filtered, tagged, setPart bool, seed int64, shrinkSel uint8) bool {
		st := NewStore(anyConfig(filtered, tagged, setPart, 64),
			&NullBridge{Sets: 256, Ways: 16})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 3000; i++ {
			tr := mem.Line(rng.Uint64() >> 20)
			st.Insert(0, 1, Entry{Trigger: tr, Targets: []mem.Line{1, 2, 3, 4}})
		}
		before := st.Occupancy()
		newSize := st.SizeBytes() >> (1 + shrinkSel%3)
		st.Resize(newSize)
		after := st.Occupancy()
		if after > before {
			return false
		}
		// Every surviving entry must still be reachable via Lookup (no
		// misplacement): sample the dump.
		dump := st.DumpEntries()
		for i, e := range dump {
			if i >= 100 {
				break
			}
			if _, ok, _ := st.Lookup(0, 1, e.Trigger); !ok {
				return false
			}
		}
		return after <= st.SizeBytes()/mem.LineSize*4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyFilteredStoresNeverRearrange(t *testing.T) {
	f := func(tagged, setPart bool, seed int64) bool {
		cfg := anyConfig(true, tagged, setPart, 64)
		st := NewStore(cfg, &NullBridge{Sets: 256, Ways: 16})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 1500; i++ {
			st.Insert(0, 1, Entry{Trigger: mem.Line(rng.Uint64() >> 20),
				Targets: []mem.Line{1, 2, 3, 4}})
		}
		st.Resize(st.SizeBytes() / 2)
		st.Resize(cfg.MaxBytes)
		return st.Stats.RearrangeReads == 0 && st.Stats.RearrangeWrites == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyWouldFilterConsistentWithInsert(t *testing.T) {
	f := func(tagged, setPart bool, trig uint32, shrink bool) bool {
		cfg := anyConfig(true, tagged, setPart, 64)
		st := NewStore(cfg, &NullBridge{Sets: 256, Ways: 16})
		if shrink {
			st.Resize(cfg.MaxBytes / 4)
		}
		tr := mem.Line(trig)
		before := st.Stats.FilteredInserts
		st.Insert(0, 1, Entry{Trigger: tr, Targets: []mem.Line{1, 2, 3, 4}})
		filtered := st.Stats.FilteredInserts > before
		return filtered == st.WouldFilter(tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyTrafficMonotone(t *testing.T) {
	// Reads+writes never decrease and each op adds at most one block.
	f := func(ops []uint32) bool {
		st := NewStore(anyConfig(true, true, true, 64), &NullBridge{Sets: 256, Ways: 16})
		prev := st.Stats.Traffic()
		for _, op := range ops {
			tr := mem.Line(op >> 2)
			if op&1 == 0 {
				st.Insert(0, 1, Entry{Trigger: tr, Targets: []mem.Line{1, 2, 3, 4}})
			} else {
				st.Lookup(0, 1, tr)
			}
			cur := st.Stats.Traffic()
			if cur < prev || cur > prev+1 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
