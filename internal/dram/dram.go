// Package dram models main memory with the banked, channelled timing of
// Table II: DDR4-3200 with an 8-byte channel, 12.5ns tCAS/tRCD/tRP, 8 banks
// per rank, and per-core-count channel/rank scaling. The model captures the
// three first-order effects the paper's evaluation depends on: row-buffer
// locality, per-channel bandwidth occupancy (Figure 10c's sweep), and
// queueing under multi-core contention.
package dram

import (
	"streamline/internal/mem"
	"streamline/internal/telemetry"
)

// Config describes the memory system, with timings in core cycles (4GHz:
// one cycle is 0.25ns, so 12.5ns is 50 cycles).
type Config struct {
	Channels        int
	RanksPerChannel int
	BanksPerRank    int
	// RowLines is the row-buffer size in cache lines (8KB rows: 128).
	RowLines int
	// TransferCycles is the channel occupancy per 64B line (DDR4-3200 at
	// 8B width moves 64B in 2.5ns: 10 cycles).
	TransferCycles uint64
	// CAS, RCD and RP are the usual DRAM timing parameters in cycles.
	CAS, RCD, RP uint64
}

// ConfigFor returns the Table II memory configuration for a core count:
// 1, 2, 4 and 8 cores use 1, 2, 2 and 4 channels with 1, 1, 2 and 2 ranks
// per channel respectively.
func ConfigFor(cores int) Config {
	cfg := Config{
		BanksPerRank:   8,
		RowLines:       128,
		TransferCycles: 10,
		CAS:            50,
		RCD:            50,
		RP:             50,
	}
	switch {
	case cores <= 1:
		cfg.Channels, cfg.RanksPerChannel = 1, 1
	case cores == 2:
		cfg.Channels, cfg.RanksPerChannel = 2, 1
	case cores <= 4:
		cfg.Channels, cfg.RanksPerChannel = 2, 2
	default:
		cfg.Channels, cfg.RanksPerChannel = 4, 2
	}
	return cfg
}

// ScaleBandwidth returns a copy of the config with channel bandwidth
// multiplied by factor (>1 means more bandwidth), used for the Figure 10c
// DRAM bandwidth sweep.
func (c Config) ScaleBandwidth(factor float64) Config {
	if factor <= 0 {
		return c
	}
	t := float64(c.TransferCycles) / factor
	if t < 1 {
		t = 1
	}
	c.TransferCycles = uint64(t + 0.5)
	return c
}

// Stats counts DRAM events.
type Stats struct {
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowMisses    uint64 // closed bank
	RowConflicts uint64 // open row mismatch
	QueueCycles  uint64 // cycles requests waited for channel/bank
}

// Accesses returns total reads plus writes.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// RowHitRate returns row-buffer hits over accesses.
func (s Stats) RowHitRate() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(s.Accesses())
}

// Requests arrive with out-of-order timestamps (prefetch chains are stamped
// ahead of the demands that trigger them), so channel bandwidth and bank
// occupancy are modeled with the order-insensitive bucketed rate limiter of
// mem.RateLimiter instead of next-free ratchets.

type bank struct {
	openRow int64 // -1 when precharged
	busy    mem.RateLimiter
}

type channel struct {
	busy mem.RateLimiter
}

// DRAM is the memory-system timing model.
type DRAM struct {
	cfg   Config
	chans []channel
	banks [][]bank // [channel][rank*banksPerRank+bank]
	// route's divisors, from cfg
	nChans, rowLines, nBanks mem.Divisor

	// chanXfers shadow-counts line transfers per channel for the audit
	// subsystem's bandwidth-conservation check (every access must be
	// charged to exactly one channel).
	chanXfers []uint64

	// tel receives row-conflict events; nil (the default) disables them.
	tel *telemetry.Emitter

	Stats Stats
}

// SetTelemetry attaches a telemetry emitter for discrete DRAM events
// (row-buffer conflicts). A nil emitter (telemetry disabled) is fine.
func (d *DRAM) SetTelemetry(tel *telemetry.Emitter) { d.tel = tel }

// New constructs a DRAM model from cfg.
func New(cfg Config) *DRAM {
	d := &DRAM{
		cfg:       cfg,
		chans:     make([]channel, cfg.Channels),
		banks:     make([][]bank, cfg.Channels),
		chanXfers: make([]uint64, cfg.Channels),
		nChans:    mem.NewDivisor(cfg.Channels),
		rowLines:  mem.NewDivisor(cfg.RowLines),
		nBanks:    mem.NewDivisor(cfg.RanksPerChannel * cfg.BanksPerRank),
	}
	for ch := range d.chans {
		d.chans[ch].busy = mem.NewRateLimiter(128, 128)
		d.banks[ch] = make([]bank, cfg.RanksPerChannel*cfg.BanksPerRank)
		for b := range d.banks[ch] {
			d.banks[ch][b].openRow = -1
			d.banks[ch][b].busy = mem.NewRateLimiter(512, 512)
		}
	}
	return d
}

// Config returns the model's configuration.
func (d *DRAM) Config() Config { return d.cfg }

// route maps a line to its channel, bank, and row. Lines interleave across
// channels at line granularity for bandwidth; within a channel, RowLines
// consecutive lines share a row.
func (d *DRAM) route(l mem.Line) (ch, bk int, row int64) {
	v, c := d.nChans.DivMod(uint64(l))
	r, b := d.nBanks.DivMod(d.rowLines.Div(v))
	return int(c), int(b), int64(r)
}

// Write enqueues a writeback of one line at cycle now. Writebacks drain
// from the memory controller's write buffer: they consume channel bandwidth
// (which reads then queue behind) but no requester waits on them, so no
// latency is returned and bank/row state is left to the reads.
func (d *DRAM) Write(now uint64, l mem.Line) {
	ch, _, _ := d.route(l)
	d.chans[ch].busy.Charge(now, d.cfg.TransferCycles)
	d.chanXfers[ch]++
	d.Stats.Writes++
}

// Access issues a read of one line at cycle now and returns its latency
// (completion minus now), accounting for channel queueing, bank
// availability, and row-buffer state.
func (d *DRAM) Access(now uint64, l mem.Line, write bool) uint64 {
	if write {
		d.Write(now, l)
		return 0
	}
	ch, bk, row := d.route(l)
	b := &d.banks[ch][bk]
	c := &d.chans[ch]

	var rowLat uint64
	switch {
	case b.openRow == row:
		rowLat = d.cfg.CAS
		d.Stats.RowHits++
	case b.openRow == -1:
		rowLat = d.cfg.RCD + d.cfg.CAS
		d.Stats.RowMisses++
	default:
		rowLat = d.cfg.RP + d.cfg.RCD + d.cfg.CAS
		d.Stats.RowConflicts++
		if d.tel.Enabled(telemetry.Debug) {
			d.tel.Eventf(now, telemetry.Debug, "row-conflict",
				"ch %d bank %d: open row %d closed for %d", ch, bk, b.openRow, row)
		}
	}
	b.openRow = row

	// Channel bandwidth: one burst per TransferCycles. Bank occupancy:
	// activation (if any) plus the burst; the CAS latency pipelines with
	// the next access to an open row.
	start := now + c.busy.Charge(now, d.cfg.TransferCycles)
	bankOcc := (rowLat - d.cfg.CAS) + d.cfg.TransferCycles
	start += b.busy.Charge(start, bankOcc)
	d.Stats.QueueCycles += start - now
	d.chanXfers[ch]++

	done := start + rowLat + d.cfg.TransferCycles
	d.Stats.Reads++
	return done - now
}
