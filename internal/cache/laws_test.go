package cache

import (
	"testing"

	"streamline/internal/audit"
)

// TestAuditReportsLateExceedingUseful: the runtime audit reports the one
// counter law it used to leave to the result checker. The perturbation keeps
// every source sum balanced, so only the bound can catch it.
func TestAuditReportsLateExceedingUseful(t *testing.T) {
	c := pfCache()
	c.Stats.LatePrefetches++
	c.Stats.Sources[SrcL2].UsefulLate++
	c.Stats.Sources[SrcL2].UsefulTimely-- // wraps: timely+late still sums to useful
	r := auditRules(c)
	if r["late-exceeds-useful"] == 0 {
		t.Fatalf("late > useful not detected: %v", r)
	}
	if r["source-sum"] != 0 {
		t.Fatalf("source-sum fired on a balanced perturbation: %v", r)
	}
}

// TestAuditCleanScanAllocatesNothing: with every law holding, a scan formats
// nothing and allocates nothing, so -check costs reads only.
func TestAuditCleanScanAllocatesNothing(t *testing.T) {
	c, a := pfCache(), audit.New(0)
	if n := testing.AllocsPerRun(100, func() { c.AuditScan(a, 0) }); n != 0 {
		t.Errorf("clean AuditScan allocates %v times per scan, want 0", n)
	}
	if a.Total() != 0 {
		t.Fatalf("clean cache reports violations: %v", a.Violations())
	}
}
