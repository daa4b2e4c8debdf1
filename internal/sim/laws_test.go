package sim

import (
	"testing"

	"streamline/internal/audit"
	"streamline/internal/cache"
)

// finishRules drives an audited whole-run system (stride at the L1D, STMS
// with its off-chip metadata at the L2) to Done, lets perturb corrupt one
// counter, and returns the rules Finish then reports for component "sim".
func finishRules(t *testing.T, perturb func(s *System)) (map[string]int, *audit.Auditor) {
	t.Helper()
	cfg := DefaultConfig(1)
	cfg.LLC.Sets = 128
	cfg.L2.Sets = 64
	cfg.WarmupInstructions = 0
	cfg.MeasureInstructions = 20_000
	for _, name := range []string{"stride", "stms"} {
		if err := Attach(&cfg, name, Knobs{}); err != nil {
			t.Fatal(err)
		}
	}
	a := audit.New(1)
	cfg.Audit = a
	s := New(cfg)
	s.SetTrace(0, traceFor(t, "mcf06", 1))
	e := s.Engine()
	for !e.Done() {
		e.Step(DefaultEpoch)
	}
	perturb(s)
	e.Finish()
	rules := map[string]int{}
	for _, v := range a.Violations() {
		if v.Component == "sim" {
			rules[v.Rule]++
		}
	}
	return rules, a
}

// TestFinishEnforcesResultLaws: the final audit runs Result.Laws, so a
// counter perturbed after the last record surfaces as the matching named
// sim violation, and an unperturbed run — whose ledger needs STMS's
// off-chip reads — reports nothing.
func TestFinishEnforcesResultLaws(t *testing.T) {
	if _, a := finishRules(t, func(*System) {}); a.Total() != 0 {
		t.Fatalf("clean run reports violations: %v", a.Violations())
	}
	cases := []struct {
		rule    string
		perturb func(s *System)
	}{
		// An issue the L1 engine never filled, counted in the core total
		// too so only the per-engine law can see it.
		{"engine-fills", func(s *System) {
			fin := &s.cores[0].final
			fin.issuedBy[cache.SrcL1]++
			fin.issued++
		}},
		{"engine-issue-sum", func(s *System) { s.cores[0].final.issued++ }},
		{"dram-read-ledger", func(s *System) { s.dram.Stats.Reads++ }},
		{"dram-write-bound", func(s *System) { s.dram.Stats.Writes = 0 }},
		// More STMS outcomes at the L2 than fills: only the result sees it,
		// the live L2 the final scan checks is untouched.
		{"lifecycle-partition", func(s *System) {
			src := &s.cores[0].final.l2.Sources[cache.SrcTemporal]
			src.EvictedUnused += src.Fills + 1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			rules, a := finishRules(t, tc.perturb)
			if rules[tc.rule] == 0 {
				t.Fatalf("no sim/%s violation; audit reported %v", tc.rule, a.Violations())
			}
		})
	}
}
