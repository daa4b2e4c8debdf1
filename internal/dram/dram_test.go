package dram

import (
	"math/rand"
	"testing"

	"streamline/internal/mem"
)

func TestConfigFor(t *testing.T) {
	tests := []struct {
		cores, channels, ranks int
	}{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {8, 4, 2},
	}
	for _, tt := range tests {
		cfg := ConfigFor(tt.cores)
		if cfg.Channels != tt.channels || cfg.RanksPerChannel != tt.ranks {
			t.Errorf("ConfigFor(%d) = %d ch / %d ranks, want %d / %d",
				tt.cores, cfg.Channels, cfg.RanksPerChannel, tt.channels, tt.ranks)
		}
	}
}

func TestRowBufferHit(t *testing.T) {
	d := New(ConfigFor(1))
	cfg := d.Config()
	// First access to a row: closed bank -> RCD + CAS + transfer.
	lat1 := d.Access(0, 0, false)
	want1 := cfg.RCD + cfg.CAS + cfg.TransferCycles
	if lat1 != want1 {
		t.Errorf("cold access latency = %d, want %d", lat1, want1)
	}
	// Same row, much later (no queueing): row hit -> CAS + transfer.
	lat2 := d.Access(10000, 1, false)
	want2 := cfg.CAS + cfg.TransferCycles
	if lat2 != want2 {
		t.Errorf("row-hit latency = %d, want %d", lat2, want2)
	}
	if d.Stats.RowHits != 1 || d.Stats.RowMisses != 1 {
		t.Errorf("row stats: %+v", d.Stats)
	}
}

func TestRowConflict(t *testing.T) {
	d := New(ConfigFor(1))
	cfg := d.Config()
	d.Access(0, 0, false)
	// A line in the same bank but a different row: with 1 channel, 8 banks,
	// 128 lines/row, rows of the same bank are 8*128 lines apart.
	conflictLine := mem.Line(8 * 128)
	lat := d.Access(100000, conflictLine, false)
	want := cfg.RP + cfg.RCD + cfg.CAS + cfg.TransferCycles
	if lat != want {
		t.Errorf("row-conflict latency = %d, want %d", lat, want)
	}
	if d.Stats.RowConflicts != 1 {
		t.Errorf("RowConflicts = %d, want 1", d.Stats.RowConflicts)
	}
}

func TestChannelBandwidthQueueing(t *testing.T) {
	d := New(ConfigFor(1)) // one channel
	// Issue many same-cycle accesses to different banks: beyond the
	// channel's burst window they serialize at TransferCycles apart.
	n := 64
	var total uint64
	for i := 0; i < n; i++ {
		total += d.Access(0, mem.Line(i*128), false) // distinct banks/rows
	}
	if d.Stats.QueueCycles == 0 {
		t.Error("no queueing observed on a saturated channel")
	}
	// Average latency should exceed the unloaded latency.
	unloaded := d.Config().RCD + d.Config().CAS + d.Config().TransferCycles
	if total/uint64(n) <= unloaded {
		t.Errorf("avg latency %d under load <= unloaded %d", total/uint64(n), unloaded)
	}
}

func TestMoreChannelsReduceQueueing(t *testing.T) {
	run := func(cores int) uint64 {
		d := New(ConfigFor(cores))
		for i := 0; i < 512; i++ {
			// Consecutive lines interleave across channels.
			d.Access(0, mem.Line(i), false)
		}
		return d.Stats.QueueCycles
	}
	if q1, q8 := run(1), run(8); q8 >= q1 {
		t.Errorf("8-core config queueing (%d) >= 1-core (%d)", q8, q1)
	}
}

func TestScaleBandwidth(t *testing.T) {
	base := ConfigFor(1)
	half := base.ScaleBandwidth(0.5)
	if half.TransferCycles != base.TransferCycles*2 {
		t.Errorf("half bandwidth transfer = %d, want %d", half.TransferCycles, base.TransferCycles*2)
	}
	double := base.ScaleBandwidth(2)
	if double.TransferCycles >= base.TransferCycles {
		t.Errorf("double bandwidth transfer = %d, want < %d", double.TransferCycles, base.TransferCycles)
	}
	if ScaleBandwidth := base.ScaleBandwidth(0); ScaleBandwidth != base {
		t.Error("non-positive factor should be identity")
	}
	// Extreme scaling saturates at 1 cycle.
	if fast := base.ScaleBandwidth(1e9); fast.TransferCycles != 1 {
		t.Errorf("extreme scale transfer = %d, want 1", fast.TransferCycles)
	}
}

func TestReadsWritesCounted(t *testing.T) {
	d := New(ConfigFor(1))
	d.Access(0, 1, false)
	d.Access(0, 2, true)
	d.Access(0, 3, true)
	if d.Stats.Reads != 1 || d.Stats.Writes != 2 {
		t.Errorf("reads/writes = %d/%d, want 1/2", d.Stats.Reads, d.Stats.Writes)
	}
	if d.Stats.Accesses() != 3 {
		t.Errorf("Accesses = %d, want 3", d.Stats.Accesses())
	}
}

func TestRowHitRate(t *testing.T) {
	d := New(ConfigFor(1))
	for i := 0; i < 100; i++ {
		d.Access(uint64(i*1000), mem.Line(i%64), false) // same row
	}
	if r := d.Stats.RowHitRate(); r < 0.9 {
		t.Errorf("sequential row hit rate = %.2f, want >= 0.9", r)
	}
	var empty Stats
	if empty.RowHitRate() != 0 {
		t.Error("empty stats row hit rate should be 0")
	}
}

func TestRouteDeterministicAndInRange(t *testing.T) {
	d := New(ConfigFor(8))
	for i := 0; i < 10000; i++ {
		ch, bk, row := d.route(mem.Line(i * 37))
		if ch < 0 || ch >= 4 || bk < 0 || bk >= 16 || row < 0 {
			t.Fatalf("route out of range: ch=%d bk=%d row=%d", ch, bk, row)
		}
	}
}

// TestRouteMatchesDivisionForm: route's reciprocal arithmetic must place every
// line where the divisions it replaced did — for every core count's geometry,
// odd geometries, and line addresses from the dense low range up past the
// per-core address stride (2⁴⁴ bytes, so bit 38 of a line) of an 8-core run.
func TestRouteMatchesDivisionForm(t *testing.T) {
	cfgs := []Config{ConfigFor(1), ConfigFor(2), ConfigFor(4), ConfigFor(8),
		{Channels: 3, RanksPerChannel: 1, BanksPerRank: 5, RowLines: 100},
		{Channels: 1, RanksPerChannel: 1, BanksPerRank: 1, RowLines: 1}}
	rng := rand.New(rand.NewSource(21))
	for _, cfg := range cfgs {
		d := New(cfg)
		check := func(l mem.Line) {
			v := uint64(l)
			wantCh := int(v % uint64(cfg.Channels))
			rowIdx := v / uint64(cfg.Channels) / uint64(cfg.RowLines)
			nbanks := uint64(cfg.RanksPerChannel * cfg.BanksPerRank)
			wantBk, wantRow := int(rowIdx%nbanks), int64(rowIdx/nbanks)
			if ch, bk, row := d.route(l); ch != wantCh || bk != wantBk || row != wantRow {
				t.Fatalf("%+v: route(%#x) = (%d, %d, %d), want (%d, %d, %d)", cfg, v, ch, bk, row, wantCh, wantBk, wantRow)
			}
		}
		for l := mem.Line(0); l < 100_000; l++ {
			check(l)
		}
		for i := 0; i < 200_000; i++ {
			core := mem.Line(rng.Intn(8)) << 38
			check(core + mem.Line(rng.Uint64()>>uint(26+rng.Intn(30))))
			check(mem.Line(rng.Uint64() >> 6)) // any line a 64-bit address can name
		}
	}
}
