package sim

import (
	"testing"

	"streamline/internal/prefetch"
)

// TestEngineRowsBuildInTheirSlot: every row of the engine table has a unique
// name and, attached to a config, puts a real prefetcher in exactly the slot
// the row declares — so a row cannot name one slot and wire another, or
// leave its constructor out.
func TestEngineRowsBuildInTheirSlot(t *testing.T) {
	isNil := func(p prefetch.Prefetcher) bool { _, ok := p.(prefetch.Nil); return ok }
	seen := map[string]bool{}
	for _, e := range Engines() {
		if seen[e.Name] {
			t.Errorf("engine %q appears twice", e.Name)
		}
		seen[e.Name] = true
		cfg := smallConfig(1)
		if err := Attach(&cfg, e.Name, Knobs{}); err != nil {
			t.Fatal(err)
		}
		cs := New(cfg).cores[0]
		got := map[Slot]bool{
			SlotL1: !isNil(cs.l1pf),
			SlotL2: !isNil(cs.l2pf),
		}
		// Both temporal slots share the core's one temporal prefetcher;
		// which factory built it tells them apart.
		got[SlotLLC] = !isNil(cs.tempf) && cfg.Temporal != nil
		got[SlotDRAM] = !isNil(cs.tempf) && cfg.TemporalDRAM != nil
		for slot, filled := range got {
			if filled != (slot == e.Slot) {
				t.Errorf("engine %q (slot %d): slot %d filled = %v", e.Name, e.Slot, slot, filled)
			}
		}
	}
	if err := Attach(new(Config), "no-such-engine", Knobs{}); err == nil {
		t.Error("Attach accepted an unknown engine name")
	}
}
