package audit

import (
	"strings"
	"testing"
)

func TestNilAuditorIsSafe(t *testing.T) {
	var a *Auditor
	a.Reportf(1, "cpu", "rule", "detail %d", 7)
	a.CountScan()
	a.WriteReport(&strings.Builder{})
	if a.Total() != 0 || a.Scans() != 0 || a.Violations() != nil || a.Err() != nil {
		t.Fatal("nil auditor must behave as an inert no-op")
	}
}

func TestReportfRecordsAndFormats(t *testing.T) {
	a := New(42)
	a.Reportf(100, "L1D", "duplicate-line", "line %#x twice", 0xbeef)
	if a.Total() != 1 {
		t.Fatalf("Total = %d, want 1", a.Total())
	}
	v := a.Violations()[0]
	if v.Cycle != 100 || v.Component != "L1D" || v.Rule != "duplicate-line" {
		t.Fatalf("violation fields wrong: %+v", v)
	}
	if got := v.String(); !strings.Contains(got, "cycle 100") ||
		!strings.Contains(got, "L1D/duplicate-line") ||
		!strings.Contains(got, "0xbeef") {
		t.Fatalf("String() = %q missing expected parts", got)
	}
}

func TestRetentionLimitCapsStorageNotCount(t *testing.T) {
	a := New(1)
	a.limit = 3
	for i := 0; i < 10; i++ {
		a.Reportf(uint64(i), "dram", "rule", "v%d", i)
	}
	if a.Total() != 10 {
		t.Fatalf("Total = %d, want 10", a.Total())
	}
	if len(a.Violations()) != 3 {
		t.Fatalf("retained %d violations, want 3", len(a.Violations()))
	}
	var sb strings.Builder
	a.WriteReport(&sb)
	if !strings.Contains(sb.String(), "and 7 more") {
		t.Fatalf("report missing dropped-count line:\n%s", sb.String())
	}
}

func TestZeroLimitFallsBackToDefault(t *testing.T) {
	a := &Auditor{}
	for i := 0; i < DefaultLimit+5; i++ {
		a.Reportf(0, "c", "r", "")
	}
	if len(a.Violations()) != DefaultLimit {
		t.Fatalf("retained %d, want DefaultLimit %d", len(a.Violations()), DefaultLimit)
	}
}

func TestErr(t *testing.T) {
	a := New(7)
	if a.Err() != nil {
		t.Fatal("clean auditor must have nil Err")
	}
	a.Reportf(5, "meta", "byte-budget", "over by 64")
	err := a.Err()
	if err == nil {
		t.Fatal("Err must be non-nil after a violation")
	}
	if !strings.Contains(err.Error(), "byte-budget") {
		t.Fatalf("Err = %q, want it to name the first violation's rule", err)
	}
}

func TestWriteReportHeader(t *testing.T) {
	a := New(99)
	a.Label = "streamline|mcf06|1"
	a.CountScan()
	a.CountScan()
	a.Reportf(10, "sim", "partition-sum", "off by one block")
	var sb strings.Builder
	a.WriteReport(&sb)
	out := sb.String()
	for _, want := range []string{"streamline|mcf06|1", "seed 99", "2 scans", "1 violations", "partition-sum"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
