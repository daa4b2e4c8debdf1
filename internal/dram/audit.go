package dram

import "streamline/internal/audit"

// AuditScan verifies the memory model's invariants against a, reporting each
// breach at cycle now. All checks are read-only.
//
// Invariants:
//   - row-buffer state legality: a bank's open row is either -1 (precharged)
//     or a non-negative row number — any other value means the activate/
//     precharge state machine was corrupted;
//   - per-channel bandwidth conservation: every read and write was charged
//     to exactly one channel, so the per-channel transfer counts sum to the
//     global access count (a miscounted channel silently under-models
//     contention);
//   - row-outcome accounting: every read was classified as exactly one of
//     row hit, row miss (closed bank), or row conflict.
func (d *DRAM) AuditScan(a *audit.Auditor, now uint64) {
	if a == nil {
		return
	}
	for ch := range d.banks {
		for bk := range d.banks[ch] {
			if row := d.banks[ch][bk].openRow; row < -1 {
				a.Reportf(now, "dram", "row-state-illegal",
					"channel %d bank %d open row %d (want -1 or >= 0)", ch, bk, row)
			}
		}
	}
	var xfers uint64
	for _, n := range d.chanXfers {
		xfers += n
	}
	if total := d.Stats.Reads + d.Stats.Writes; xfers != total {
		a.Reportf(now, "dram", "channel-conservation",
			"per-channel transfers sum to %d, accesses total %d", xfers, total)
	}
	d.Stats.CounterLaws(func(rule, format string, args ...any) {
		a.Reportf(now, "dram", rule, format, args...)
	})
}

// CounterLaws reports every counter identity s breaks, as an audit rule name
// and a message: every read resolves to exactly one of row hit, row miss, or
// row conflict. The law is window-safe — the outcome is classified in the
// same step the read is counted — so it holds for a running model
// (AuditScan) and for the delta over any measured window (check.SimLaws).
func (s Stats) CounterLaws(fail func(rule, format string, args ...any)) {
	if s.RowHits+s.RowMisses+s.RowConflicts != s.Reads {
		fail("row-outcome-accounting", "row hits %d + misses %d + conflicts %d != reads %d",
			s.RowHits, s.RowMisses, s.RowConflicts, s.Reads)
	}
}
