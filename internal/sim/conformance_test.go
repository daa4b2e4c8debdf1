package sim_test

// The cross-prefetcher conformance suite: every prefetcher in the repository
// runs against every workload family with the invariant audit enabled, and
// must satisfy the contracts shared by all of them — zero audit violations
// (line-aligned prefetch addresses, sound fill accounting, and at the end of
// the run every law of sim.Result.Laws), accuracy and coverage within [0,1],
// and bit-identical results across repeated runs.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"streamline/internal/audit"
	"streamline/internal/sim"
	"streamline/internal/workloads"
)

// conformanceArm configures one prefetcher under test.
type conformanceArm struct {
	name  string
	apply func(cfg *sim.Config)
}

// conformanceKnobs sizes the metadata engines for the micro-run hierarchy.
var conformanceKnobs = sim.Knobs{MetaBytes: 32 << 10, MinSets: 8}

// conformanceArms covers every prefetcher in the repository — one arm per
// row of the engine table: the two L1D spatial prefetchers, the three L2
// spatial prefetchers, the three LLC-metadata temporal prefetchers, and the
// DRAM-metadata STMS baseline.
func conformanceArms() []conformanceArm {
	var arms []conformanceArm
	for _, e := range sim.Engines() {
		name := e.Name
		arms = append(arms, conformanceArm{name, func(cfg *sim.Config) {
			if err := sim.Attach(cfg, name, conformanceKnobs); err != nil {
				panic(err)
			}
		}})
	}
	return arms
}

// TestConformanceCoversEngineTable pins the engine table's rows and order,
// and with them the conformance arm list: adding an engine is a deliberate
// edit here, and the new row is then under every contract below.
func TestConformanceCoversEngineTable(t *testing.T) {
	want := []string{"stride", "berti", "ipcp", "bingo", "spp", "triage", "triangel", "streamline", "stms"}
	var got []string
	for _, a := range conformanceArms() {
		got = append(got, a.name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("conformance arms = %v, want %v", got, want)
	}
}

// conformanceFamilies names one representative workload per access-pattern
// family: pointer chase, scan-then-chase, graph gather, graph frontier,
// sparse algebra, sparse streaming, and dense streaming.
var conformanceFamilies = []string{
	"mcf06", "omnetpp06", "pr", "bfs", "soplex06", "xz17", "libquantum06",
}

const conformanceSeed = 1

// runConformance executes one audited micro-run. Warmup is zero so the
// result counters cover the whole run and the audit applies the lifecycle
// bound to every level (a warmup-installed prefetch used in the measured
// phase would otherwise count as useful without a counted fill).
func runConformance(t *testing.T, arm conformanceArm, workload string) (sim.Result, *audit.Auditor) {
	t.Helper()
	sys, aud := buildConformanceSys(t, arm, workload)
	return sys.Run(), aud
}

// buildConformanceSys constructs the audited micro-run system without running
// it, so callers can drive it either one-shot (Run) or stepped (Engine) —
// the stepped-equivalence suite in engine_test.go relies on both paths
// starting from identical systems.
func buildConformanceSys(t *testing.T, arm conformanceArm, workload string) (*sim.System, *audit.Auditor) {
	t.Helper()
	cfg := sim.DefaultConfig(1)
	cfg.LLC.Sets = 128
	cfg.L2.Sets = 64
	cfg.WarmupInstructions = 0
	cfg.MeasureInstructions = 30_000
	cfg.AuditInterval = 512
	arm.apply(&cfg)

	aud := audit.New(conformanceSeed)
	aud.Label = arm.name + "|" + workload
	cfg.Audit = aud

	w, err := workloads.Get(workload)
	if err != nil {
		t.Fatalf("workload %s: %v", workload, err)
	}
	sys := sim.New(cfg)
	sys.SetTrace(0, w.NewTrace(workloads.Scale{Footprint: 0.05}, conformanceSeed))
	return sys, aud
}

func TestConformance(t *testing.T) {
	base := map[string]uint64{}
	for _, w := range conformanceFamilies {
		res, aud := runConformance(t, conformanceArm{name: "none", apply: func(cfg *sim.Config) {}}, w)
		if n := aud.Total(); n != 0 {
			var sb strings.Builder
			aud.WriteReport(&sb)
			t.Fatalf("baseline %s: %d audit violations:\n%s", w, n, sb.String())
		}
		if got := res.Cores[0].PrefetchesIssued; got != 0 {
			t.Fatalf("baseline %s issued %d prefetches, want 0", w, got)
		}
		base[w] = res.Cores[0].L2.DemandMisses
	}

	for _, arm := range conformanceArms() {
		arm := arm
		t.Run(arm.name, func(t *testing.T) {
			for _, w := range conformanceFamilies {
				w := w
				t.Run(w, func(t *testing.T) {
					res, aud := runConformance(t, arm, w)

					// Contract: zero invariant violations under audit, the
					// result's laws (exact DRAM read ledger, per-engine
					// fills = issues, lifecycle bounds) included.
					if n := aud.Total(); n != 0 {
						var sb strings.Builder
						aud.WriteReport(&sb)
						t.Errorf("%d audit violations:\n%s", n, sb.String())
					}
					if aud.Scans() == 0 {
						t.Error("audit performed zero scans; cadence is broken")
					}

					// Contract: determinism — an identical second run must
					// produce bit-identical results.
					res2, _ := runConformance(t, arm, w)
					if !reflect.DeepEqual(res, res2) {
						t.Errorf("results differ between identical runs:\n%s", diffSummary(res, res2))
					}

					c := res.Cores[0]
					if c.Instructions < 30_000 {
						t.Errorf("ran %d instructions, want >= 30000", c.Instructions)
					}

					// Contract: derived metrics stay in range.
					if acc := c.PrefetchAccuracy(); acc < 0 || acc > 1 {
						t.Errorf("accuracy %f outside [0,1]", acc)
					}
					cov := coverage(base[w], c.L2.DemandMisses)
					if cov < 0 || cov > 1 {
						t.Errorf("coverage %f outside [0,1]", cov)
					}
				})
			}
		})
	}
}

// coverage mirrors the experiment harness's definition: the fraction of
// baseline L2 demand misses removed, floored at zero when the prefetcher
// adds misses.
func coverage(baseMisses, misses uint64) float64 {
	if baseMisses == 0 || misses >= baseMisses {
		return 0
	}
	return float64(baseMisses-misses) / float64(baseMisses)
}

// diffSummary renders the headline counters of two results for determinism
// failures.
func diffSummary(a, b sim.Result) string {
	f := func(r sim.Result) string {
		c := r.Cores[0]
		return fmt.Sprintf("instr=%d cycles=%d issued=%d l2fills=%d useful=%d dram=%d",
			c.Instructions, c.Cycles, c.PrefetchesIssued,
			c.L2.PrefetchFills, c.L2.UsefulPrefetches, r.DRAM.Reads)
	}
	return "  run1: " + f(a) + "\n  run2: " + f(b)
}
