package check

import (
	"fmt"

	"streamline/internal/sim"
)

// MetaDRAMTraffic is the off-chip metadata traffic SimLaws needs to balance
// the DRAM ledger (sim.MetaDRAMTraffic).
type MetaDRAMTraffic = sim.MetaDRAMTraffic

// SimLaws checks a full result against every level's counter identities
// (cache.Stats and dram.Stats CounterLaws, over the result's possibly
// windowed counters) and the cross-level laws of sim.Result.Laws, which the
// runtime audit also runs when a simulation finishes. wholeRun marks runs
// with no warmup. It returns a description of each violated law (empty
// means all hold).
func SimLaws(r sim.Result, meta MetaDRAMTraffic, wholeRun bool) []string {
	var v []string
	add := func(_, format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }
	level := func(name string) func(string, string, ...any) {
		return func(rule, format string, args ...any) { add(rule, name+": "+format, args...) }
	}
	for i, cr := range r.Cores {
		cr.L1D.CounterLaws(level(fmt.Sprintf("core%d/L1D", i)))
		cr.L2.CounterLaws(level(fmt.Sprintf("core%d/L2", i)))
	}
	r.LLC.CounterLaws(level("LLC"))
	r.DRAM.CounterLaws(level("DRAM"))
	r.Laws(meta, wholeRun, add)
	return v
}
