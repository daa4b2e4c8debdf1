package meta

import (
	"streamline/internal/audit"
	"streamline/internal/mem"
)

// AuditScan verifies the metadata store's invariants against a, reporting
// each breach at cycle now. All checks are read-only.
//
// Invariants:
//   - byte budget: the current partition never exceeds the configured
//     maximum or the store's structural capacity — the bound every
//     "fraction of the metadata budget" claim in the paper rests on;
//   - placement soundness: every resident entry lives in a set and way the
//     current partition actually allocates (a shrink that strands entries
//     outside the partition would let the store exceed its budget while
//     reporting compliance);
//   - entry well-formedness: valid entries hold between 1 and StreamLength
//     targets;
//   - traffic identities: every lookup was either filtered or charged one
//     LLC read, every insert/update charged one LLC write, and trigger
//     hits never exceed lookups.
func (s *Store) AuditScan(a *audit.Auditor, now uint64) {
	if a == nil {
		return
	}
	// When maxBytes() > MaxBytes the configured budget was below the
	// scheme's one-set/one-way granularity floor and is unsatisfiable by
	// construction; the structural-capacity check governs then.
	if s.curBytes > s.cfg.MaxBytes && s.maxBytes() <= s.cfg.MaxBytes {
		a.Reportf(now, "meta", "byte-budget",
			"partition %dB exceeds configured maximum %dB (scheme %s)",
			s.curBytes, s.cfg.MaxBytes, s.SchemeName())
	}
	if s.curBytes > s.maxBytes() {
		a.Reportf(now, "meta", "structural-capacity",
			"partition %dB exceeds structural capacity %dB", s.curBytes, s.maxBytes())
	}
	for set := 0; set < s.metaSets; set++ {
		live := s.setLive(set) || !s.cfg.SetPartitioned
		for idx := 0; idx < s.stride; idx++ {
			i := set*s.stride + idx
			if s.keys[i] == noKey {
				continue
			}
			sl := &s.slots[i]
			way := idx / s.epb
			switch {
			case !live:
				a.Reportf(now, "meta", "entry-outside-partition",
					"set %d is deallocated but holds trigger %#x", set, uint64(sl.trigger))
			case way >= s.curWays:
				a.Reportf(now, "meta", "entry-outside-partition",
					"way %d of set %d beyond the %d allocated ways (trigger %#x)",
					way, set, s.curWays, uint64(sl.trigger))
			}
			if n := s.count(i); n < 1 || n > s.k {
				a.Reportf(now, "meta", "entry-malformed",
					"set %d entry for trigger %#x holds %d targets (want 1..%d)",
					set, uint64(sl.trigger), n, s.k)
			}
		}
	}
	s.Stats.CounterLaws(func(rule, format string, args ...any) {
		a.Reportf(now, "meta", rule, format, args...)
	})
}

// CounterLaws reports every traffic identity st breaks, as an audit rule
// name and a message: every lookup was either filtered or charged one LLC
// read, every insert/update charged one LLC write, and trigger hits never
// exceed lookups. Both sides of each move in the same store call, so the
// identities hold at every step (AuditScan, the prefetcher conformance
// harness).
func (st Stats) CounterLaws(fail func(rule, format string, args ...any)) {
	if st.Reads+st.FilteredLookups != st.Lookups {
		fail("lookup-accounting", "reads %d + filtered %d != lookups %d",
			st.Reads, st.FilteredLookups, st.Lookups)
	}
	if st.Writes != st.Inserts+st.Updates {
		fail("write-accounting", "writes %d != inserts %d + updates %d",
			st.Writes, st.Inserts, st.Updates)
	}
	if st.TriggerHits > st.Lookups {
		fail("hit-accounting", "trigger hits %d > lookups %d", st.TriggerHits, st.Lookups)
	}
}

// ReservedBlocks returns the number of 64B host-LLC blocks the current
// partition occupies; the simulator's audit cross-checks the sum across
// cores against the LLC's actual way reservations.
func (s *Store) ReservedBlocks() int { return s.curBytes / mem.LineSize }
