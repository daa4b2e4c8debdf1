package exp

import (
	"sync"
	"testing"

	"streamline/internal/check"
)

// Golden-stats regression net for the parallel harness: two Small-scale
// workloads under no prefetching and under Streamline, with every counter
// pinned to a committed value. The simulator is deterministic from (config,
// workload, seed), so ANY deviation here is a real behavior change — most
// importantly, nondeterminism introduced by the worker pool (shared state
// between jobs, seed drift, iteration-order leaks) fails this test loudly
// rather than silently skewing experiment tables.
//
// If a deliberate simulator change moves these numbers, regenerate them from
// the failure output and say so in the commit.

// goldenScale pins the exact configuration the golden values were recorded
// at. Budgets are microScale-sized so the test stays in the seconds range.
func goldenScale() Scale {
	sc := Small
	sc.Workloads = []string{"mcf06", "bfs", "pr", "sphinx06"}
	sc.Warmup = 40_000
	sc.Measure = 120_000
	return sc
}

var goldenStats = []struct {
	arm, workload string
	instructions  uint64
	cycles        uint64
	l2Misses      uint64
	issued        uint64
	fills         uint64
	useful        uint64
}{
	{"none", "mcf06", 120000, 2772080, 30000, 0, 0, 0},
	{"none", "bfs", 120000, 126227, 14988, 0, 0, 0},
	{"streamline", "mcf06", 120000, 603658, 6654, 23690, 23690, 23346},
	{"streamline", "bfs", 120000, 136780, 13379, 3615, 3615, 1729},
	{"streamline", "pr", 120000, 204770, 12425, 12373, 12373, 8485},
	{"triangel", "sphinx06", 120000, 3867400, 21504, 2708, 2708, 2496},
}

func goldenArm(name string) Arm {
	switch name {
	case "streamline":
		return streamlineArm("streamline", "", "", nil)
	case "triangel":
		return triangelArm("triangel", "", "", nil)
	}
	return baseArm("", "")
}

func checkGolden(t *testing.T, r *Runner) {
	t.Helper()
	for _, g := range goldenStats {
		res := runCell(r, goldenArm(g.arm), g.workload).res
		c := res.Cores[0]
		got := []struct {
			name string
			got  uint64
			want uint64
		}{
			{"instructions", c.Instructions, g.instructions},
			{"cycles", c.Cycles, g.cycles},
			{"l2-demand-misses", c.L2.DemandMisses, g.l2Misses},
			{"prefetches-issued", c.PrefetchesIssued, g.issued},
			{"prefetch-fills", c.L2.PrefetchFills, g.fills},
			{"useful-prefetches", c.L2.UsefulPrefetches, g.useful},
		}
		for _, f := range got {
			if f.got != f.want {
				t.Errorf("%s/%s: %s = %d, want %d", g.arm, g.workload, f.name, f.got, f.want)
			}
		}
		// Conservation laws on top of the pinned values. Golden runs have a
		// warmup, so per-core stats are a measured window: window-safe laws
		// only (wholeRun=false). No golden arm uses DRAM-resident metadata.
		for _, viol := range check.SimLaws(res, check.MetaDRAMTraffic{}, false) {
			t.Errorf("%s/%s: conservation law violated: %s", g.arm, g.workload, viol)
		}
	}
}

// TestGoldenStatsSerial pins the simulator's exact counters on the serial
// path.
func TestGoldenStatsSerial(t *testing.T) {
	r := NewRunner(goldenScale())
	r.Jobs = 1
	checkGolden(t, r)
}

// TestGoldenStatsParallel sweeps the golden arms over the golden workloads
// on an oversubscribed worker pool (8 workers) and demands the same exact
// counters: the pool must not perturb results.
func TestGoldenStatsParallel(t *testing.T) {
	r := NewRunner(goldenScale())
	r.Jobs = 8
	r.Sweep([]Arm{goldenArm("none"), goldenArm("streamline"), goldenArm("triangel")},
		SingleUnits(r.Scale.Workloads))
	checkGolden(t, r)
}

// TestGoldenStatsConcurrentCallers hammers single cells directly from many
// goroutines (no pool and no sweep dedup in front), exercising the
// single-flight memo: every caller must observe the same exact result.
func TestGoldenStatsConcurrentCallers(t *testing.T) {
	r := NewRunner(goldenScale())
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		for _, g := range goldenStats {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				res := runCell(r, goldenArm(g.arm), g.workload).res
				if got := res.Cores[0].Cycles; got != g.cycles {
					t.Errorf("%s/%s: cycles = %d, want %d", g.arm, g.workload, got, g.cycles)
				}
			}()
		}
	}
	wg.Wait()
	if len(r.memo) != len(goldenStats) {
		t.Errorf("memo has %d entries, want %d (duplicate computes?)", len(r.memo), len(goldenStats))
	}
}
