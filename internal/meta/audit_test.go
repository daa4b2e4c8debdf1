package meta

import (
	"math/rand"
	"slices"
	"testing"

	"streamline/internal/audit"
	"streamline/internal/mem"
)

func storeRules(s *Store) map[string]int {
	a := audit.New(0)
	s.AuditScan(a, 0)
	rules := map[string]int{}
	for _, v := range a.Violations() {
		rules[v.Rule]++
	}
	return rules
}

func exercisedStore() *Store {
	s := NewStore(anyConfig(true, true, true, 16), &NullBridge{Sets: 256, Ways: 16})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		tr := mem.Line(rng.Uint64() >> 24)
		s.Insert(0, 1, Entry{Trigger: tr, Targets: []mem.Line{1, 2, 3, 4}})
		s.Lookup(0, 1, tr)
	}
	return s
}

func TestAuditCleanAfterUse(t *testing.T) {
	if r := storeRules(exercisedStore()); len(r) != 0 {
		t.Fatalf("clean store reports violations: %v", r)
	}
}

func TestAuditDetectsStructuralOverflow(t *testing.T) {
	s := exercisedStore()
	s.curBytes = s.maxBytes() + mem.LineSize
	if r := storeRules(s); r["structural-capacity"] == 0 {
		t.Fatalf("structural capacity overflow not detected: %v", r)
	}
}

func TestAuditDetectsMalformedEntry(t *testing.T) {
	s := exercisedStore()
	i := slices.IndexFunc(s.keys, func(k uint16) bool { return k != noKey })
	if i < 0 {
		t.Fatal("exercised store holds no valid entries")
	}
	s.info[i] = 0
	if r := storeRules(s); r["entry-malformed"] == 0 {
		t.Fatalf("target-less entry not detected: %v", r)
	}
	s.info[i] = uint8(s.k + 1)
	if r := storeRules(s); r["entry-malformed"] == 0 {
		t.Fatalf("entry longer than the format's stream not detected: %v", r)
	}
}

func TestAuditDetectsAccountingDrift(t *testing.T) {
	s := exercisedStore()
	s.Stats.Lookups++
	if r := storeRules(s); r["lookup-accounting"] == 0 {
		t.Fatalf("lookup accounting drift not detected: %v", r)
	}
	s = exercisedStore()
	s.Stats.Writes++
	if r := storeRules(s); r["write-accounting"] == 0 {
		t.Fatalf("write accounting drift not detected: %v", r)
	}
}

func TestReservedBlocksMatchesSize(t *testing.T) {
	s := exercisedStore()
	if got, want := s.ReservedBlocks(), s.SizeBytes()/mem.LineSize; got != want {
		t.Fatalf("ReservedBlocks = %d, want %d", got, want)
	}
}
