package exp

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"streamline/internal/mem"
	"streamline/internal/meta"
	"streamline/internal/workloads"
)

func TestRegistryCoversEveryTableAndFigure(t *testing.T) {
	want := []string{
		"table1", "table2",
		"fig9", "fig10a", "fig10b", "fig10c", "fig10de", "fig10f",
		"fig11ab", "fig11cd",
		"fig12a", "fig12b", "fig12c",
		"fig13a", "fig13b", "fig13c",
		"fig14", "fig15",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) < len(want) {
		t.Errorf("registry has %d experiments, want >= %d", len(All()), len(want))
	}
}

func TestAllSorted(t *testing.T) {
	es := All()
	for i := 1; i < len(es); i++ {
		if es[i-1].ID >= es[i].ID {
			t.Fatalf("All() unsorted at %q >= %q", es[i-1].ID, es[i].ID)
		}
	}
}

func TestGeomeanProperties(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("Geomean(2,8) = %v, want 4", g)
	}
	if Geomean(nil) != 0 {
		t.Error("Geomean(nil) != 0")
	}
	// Scale invariance: geomean(kx) = k*geomean(x).
	f := func(a, b, c uint8) bool {
		xs := []float64{float64(a)/16 + 0.1, float64(b)/16 + 0.1, float64(c)/16 + 0.1}
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * 3
		}
		return math.Abs(Geomean(scaled)-3*Geomean(xs)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("Mean = %v", m)
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}

func TestTableFormatting(t *testing.T) {
	tb := Table{
		ID: "t", Title: "demo",
		Columns: []string{"a", "bb"},
		Notes:   []string{"a note"},
	}
	tb.AddRow("x", F(1.5))
	tb.AddRow("longer-label", Pct(0.25))
	s := tb.String()
	for _, want := range []string{"demo", "longer-label", "1.500", "25.0%", "a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
}

func TestScaleWorkloadLists(t *testing.T) {
	if len(Small.workloadList()) != len(Small.Workloads) {
		t.Error("Small workload list does not match its subset")
	}
	irr := Small.irregular()
	if len(irr) == 0 {
		t.Fatal("no irregular workloads in Small scale")
	}
	for _, w := range irr {
		if !w.Irregular {
			t.Errorf("%s in irregular subset but not flagged", w.Name)
		}
	}
	// Paper scale covers all registered workloads.
	if len(Paper.workloadList()) != len(workloads.All()) {
		t.Error("Paper scale should cover every workload")
	}
}

func TestBaseConfigScaling(t *testing.T) {
	cfg := Small.baseConfig(2)
	if cfg.LLC.Sets != Small.LLCSets {
		t.Errorf("LLC sets = %d", cfg.LLC.Sets)
	}
	base := Paper.baseConfig(1)
	if got := cfg.DRAM.Channels; got <= base.DRAM.Channels {
		t.Errorf("Small scale did not boost DRAM channels: %d", got)
	}
}

func TestRedundancyMeasure(t *testing.T) {
	// Two entries sharing the pair (2,3) under DIFFERENT contexts: benign.
	entries := []meta.Entry{
		{Trigger: 1, Targets: []mem.Line{2, 3, 4, 5}},
		{Trigger: 9, Targets: []mem.Line{2, 3, 6, 7}},
	}
	red, benign := redundancy(entries)
	if red <= 0 {
		t.Fatal("no redundancy detected for duplicated pair")
	}
	if benign != 1 {
		t.Errorf("benign share = %v, want 1 (contexts differ)", benign)
	}
	// Identical entries: redundancy with identical context is not benign.
	dup := []meta.Entry{
		{Trigger: 1, Targets: []mem.Line{2, 3, 4, 5}},
		{Trigger: 1, Targets: []mem.Line{2, 3, 4, 5}},
	}
	_, benignDup := redundancy(dup)
	if benignDup != 0 {
		t.Errorf("benign share of identical duplicates = %v, want 0", benignDup)
	}
	if r, b := redundancy(nil); r != 0 || b != 0 {
		t.Error("empty store should have zero redundancy")
	}
}

func TestCorrelationStream(t *testing.T) {
	w, err := workloads.Get("sphinx06")
	if err != nil {
		t.Fatal(err)
	}
	stream := correlationStream(w, Small, 5000)
	if len(stream) != 5000 {
		t.Fatalf("got %d correlations, want 5000", len(stream))
	}
	for i, c := range stream[:100] {
		if c.Trigger == c.Target {
			t.Errorf("correlation %d is a self-loop", i)
		}
	}
}

func TestRunnerMemoization(t *testing.T) {
	sc := Small
	sc.Workloads = []string{"bzip206"}
	sc.Warmup = 50_000
	sc.Measure = 100_000
	r := NewRunner(sc)
	arm := baseArm("stride", "")
	a := runCell(r, arm, "bzip206").res
	b := runCell(r, arm, "bzip206").res
	if a.Cores[0].Cycles != b.Cores[0].Cycles {
		t.Error("memoized run returned different result")
	}
	if len(r.memo) != 1 {
		t.Errorf("memo has %d entries, want 1", len(r.memo))
	}
}

func TestArmsProduceDistinctConfigs(t *testing.T) {
	sc := Small
	base := baseArm("stride", "")
	tri := triangelArm("triangel", "stride", "", nil)
	str := streamlineArm("streamline", "stride", "", nil)
	for _, arm := range []Arm{base, tri, str} {
		cfg := sc.baseConfig(1)
		arm.apply(&cfg, sc)
		switch arm.Name {
		case "base+stride":
			if cfg.Temporal != nil {
				t.Error("base arm has a temporal prefetcher")
			}
		default:
			if cfg.Temporal == nil {
				t.Errorf("%s arm missing temporal prefetcher", arm.Name)
			}
		}
	}
}

func TestSchemeRetentionOrdering(t *testing.T) {
	// Tagged schemes must retain at least as much as untagged ones at the
	// big partition (the Table I associativity claim).
	cfgU := meta.StoreConfig{Format: meta.Stream, StreamLength: 4,
		SetPartitioned: true, MetaWaysPerSet: 8, MaxBytes: 128 << 10}
	cfgT := cfgU
	cfgT.Tagged = true
	u := schemeRetention(cfgU, 256, 16, 128<<10, 1)
	tg := schemeRetention(cfgT, 256, 16, 128<<10, 1)
	if tg < u {
		t.Errorf("tagged retention %.3f < untagged %.3f", tg, u)
	}
}
