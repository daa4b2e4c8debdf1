// Package cache implements the set-associative caches of the simulated
// hierarchy: tag arrays with LRU replacement, prefetch bits for
// coverage/accuracy accounting, MSHR occupancy and port contention for
// timing, and — for the LLC — way reservation hooks that carve out the
// temporal prefetchers' metadata partitions.
package cache

import (
	"fmt"
	"math/bits"

	"streamline/internal/mem"
	"streamline/internal/replacement"
	"streamline/internal/telemetry"
)

// Config describes one cache level.
type Config struct {
	// Name labels the level in reports ("L1D", "L2", "LLC").
	Name string
	// Sets and Ways define the geometry; Sets must be a power of two and
	// Ways at most 16, the most the packed LRU order holds.
	Sets, Ways int
	// Latency is the access latency in cycles.
	Latency uint64
	// MSHRs bounds outstanding misses.
	MSHRs int
	// Ports is the number of read/write ports (accesses per cycle).
	Ports int
}

// SizeBytes returns the data capacity of the configured cache.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * mem.LineSize }

// Source identifies the prefetcher that issued a fill, for lifecycle
// attribution: every prefetched line remembers which engine brought it in,
// so its eventual outcome (useful-timely, useful-late, evicted-unused) is
// credited to that engine. SrcDemand marks ordinary demand fills.
type Source uint8

const (
	SrcDemand Source = iota
	SrcL1
	SrcL2
	SrcTemporal
	// NumSources sizes per-source counter arrays.
	NumSources = int(iota)
)

// String returns the source's report name.
func (s Source) String() string {
	switch s {
	case SrcDemand:
		return "demand"
	case SrcL1:
		return "l1"
	case SrcL2:
		return "l2"
	case SrcTemporal:
		return "temporal"
	}
	return fmt.Sprintf("source(%d)", uint8(s))
}

// SourceStats is one prefetch source's lifecycle breakdown at a cache level.
// The fields partition this source's prefetch fills by outcome (lines still
// resident at the end of a run account for the remainder).
type SourceStats struct {
	Fills uint64
	// UsefulTimely counts first demand hits that found the fill complete;
	// UsefulLate counts first demand hits that had to wait on the in-flight
	// fill. Their sum is this source's share of UsefulPrefetches.
	UsefulTimely uint64
	UsefulLate   uint64
	// EvictedUnused counts prefetched lines evicted before any demand hit —
	// pure pollution.
	EvictedUnused uint64
}

// Useful returns total useful prefetches (timely plus late).
func (s SourceStats) Useful() uint64 { return s.UsefulTimely + s.UsefulLate }

// Accuracy returns useful over fills, clamped to [0,1] — the single
// definition of prefetch accuracy shared by final reports, the epoch
// feedback the simulator delivers to accuracy-consuming prefetchers, and
// the telemetry sampler's interval records.
func Accuracy(useful, fills uint64) float64 {
	if fills == 0 {
		return 0
	}
	a := float64(useful) / float64(fills)
	if a > 1 {
		a = 1
	}
	return a
}

// Stats aggregates a cache level's event counts.
type Stats struct {
	DemandAccesses uint64
	DemandHits     uint64
	DemandMisses   uint64

	PrefetchAccesses uint64
	PrefetchHits     uint64

	MetaReads  uint64
	MetaWrites uint64

	PrefetchFills    uint64
	UsefulPrefetches uint64 // demand hits on lines brought in by prefetch
	LatePrefetches   uint64 // demand hits that had to wait for an in-flight fill
	UnusedPrefetches uint64 // prefetched lines evicted without a demand hit

	Evictions  uint64
	Writebacks uint64

	PortStallCycles uint64 // queueing delay due to port contention
	MSHRStallCycles uint64 // delay waiting for a free MSHR
	ExtraWaitCycles uint64 // demand cycles spent waiting on in-flight fills

	// Sources is the per-prefetcher lifecycle attribution (indexed by
	// Source; the SrcDemand slot stays zero).
	Sources [NumSources]SourceStats
}

// DemandHitRate returns demand hits over demand accesses.
func (s Stats) DemandHitRate() float64 {
	if s.DemandAccesses == 0 {
		return 0
	}
	return float64(s.DemandHits) / float64(s.DemandAccesses)
}

// PrefetchAccuracy returns useful prefetches over prefetch fills.
func (s Stats) PrefetchAccuracy() float64 {
	return Accuracy(s.UsefulPrefetches, s.PrefetchFills)
}

// noLine marks an empty way's tag. A line address is a byte address
// shifted right by mem.LineShift, so its top bits are clear and no access can
// carry the all-ones value.
const noLine = ^mem.Line(0)

// Every set has a fingerprint row: one byte per way, padded to whole 64-bit
// words, that decides hit or miss before any tag is read. A byte 0x00–0x7F is
// the fingerprint of the way's line, rowEmpty an empty data way, rowReserved a
// way reserved for metadata or padding. Reserve reserves the low ways, so the
// row's leading run of rowReserved bytes is the reservation's only record.
const (
	rowEmpty    = 0x80
	rowReserved = 0xFF

	lsb uint64 = 0x0101010101010101 // one in every byte of a row word
	msb uint64 = 0x8080808080808080 // the top bit of every byte
)

// fingerprint is the top 7 bits of a multiplicative hash of l: never
// rowEmpty or rowReserved, so an empty, reserved or padding byte can match no
// line. No simulated decision depends on its value.
func fingerprint(l mem.Line) uint64 { return uint64(l) * 0x9E3779B97F4A7C15 >> 57 }

// zeroBytes sets the top bit of every zero byte of x. It may also set it on a
// byte above a zero byte, never misses one, and its lowest set bit is always
// exact. XORed with a broadcast fingerprint, a row word yields the ways worth a
// tag compare; a byte with its top bit set, that is an empty, reserved or
// padding way, is never flagged.
func zeroBytes(x uint64) uint64 { return (x - lsb) &^ x & msb }

// firstByte is the index of the byte holding m's lowest set bit.
func firstByte(m uint64) int { return bits.TrailingZeros64(m) >> 3 }

// line is one way: its tag (noLine when empty) and its state packed into one
// word, the fill's ready cycle above stReadyShift and the dirty bit, the
// prefetched bit and the issuing Source below it. A walk that matches a tag
// reads the state from the same 16 bytes.
type line struct {
	tag mem.Line
	st  uint64
}

const (
	stDirty      = 1 << 0
	stPrefetched = 1 << 1 // src (bits 2-3) is meaningful while set
	stSrcShift   = 2
	stReadyShift = 8
	// maxReady bounds a fill's ready cycle so it fits above the low byte.
	maxReady = 1<<(64-stReadyShift) - 1
)

func (ln *line) readyAt() uint64  { return ln.st >> stReadyShift }
func (ln *line) dirty() bool      { return ln.st&stDirty != 0 }
func (ln *line) prefetched() bool { return ln.st&stPrefetched != 0 }
func (ln *line) src() Source      { return Source(ln.st >> stSrcShift & 3) }

// Victim describes a line displaced by a fill.
type Victim struct {
	Line       mem.Line
	Dirty      bool
	Prefetched bool // evicted while still unused by demand
	Valid      bool
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg Config
	// lines is flat and set-major: way w of set s is index s*Ways+w. rows
	// holds the fingerprint rows, words uint64s per set: a tag walk reads its
	// set's row and compares only the tags whose fingerprint matched.
	lines []line
	rows  []uint64
	words int
	repl  *replacement.LRU
	// absent is the line of the last tag walk that missed, noLine after any
	// Fill. Only Fill makes a line resident, so a Fill of absent needs no walk.
	absent mem.Line

	port  mem.RateLimiter
	mshr  []uint64 // ring of outstanding miss completion times
	mshrI int

	// Shadow accounting for the audit subsystem: occupied tracks valid
	// data lines incrementally (AuditScan cross-checks it against a full
	// scan), mshrPending tracks unmatched MSHRReserve calls (leak
	// detection). Both are plain increments, kept on even when auditing is
	// off so enabling it mid-run needs no reconstruction.
	occupied    int
	mshrPending int

	// tel, when non-nil, receives this level's structured telemetry events
	// (MSHR-full stalls); nil reduces the hooks to a branch.
	tel *telemetry.Emitter

	Stats Stats
}

// SetTelemetry attaches a telemetry emitter (nil disables the hooks).
func (c *Cache) SetTelemetry(e *telemetry.Emitter) { c.tel = e }

// New constructs a cache from cfg.
func New(cfg Config) *Cache {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: sets must be a positive power of two, got %d", cfg.Name, cfg.Sets))
	}
	if cfg.Ways <= 0 || cfg.Ways > 16 {
		panic(fmt.Sprintf("cache %s: ways must be between 1 and 16, got %d", cfg.Name, cfg.Ways))
	}
	if cfg.Ports <= 0 {
		cfg.Ports = 1
	}
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 8
	}
	words := (cfg.Ways + 7) / 8
	c := &Cache{
		cfg:    cfg,
		lines:  make([]line, cfg.Sets*cfg.Ways),
		rows:   make([]uint64, cfg.Sets*words),
		words:  words,
		repl:   replacement.NewLRU(cfg.Sets, cfg.Ways),
		absent: noLine,
		port:   mem.NewRateLimiter(portWindow, uint64(cfg.Ports)*portWindow),
		mshr:   make([]uint64, cfg.MSHRs),
	}
	for i := range c.lines {
		c.lines[i].tag = noLine
	}
	for i := range c.rows {
		c.rows[i] = rowReserved * lsb
	}
	for s := 0; s < cfg.Sets; s++ {
		c.Reserve(s, 0) // a wholly reserved row released is an empty one
	}
	return c
}

// row returns set s's fingerprint row; byte b of word i is way i*8+b.
func (c *Cache) row(s int) []uint64 { return c.rows[s*c.words : (s+1)*c.words] }

// setRow sets way w's byte of set s's row to b.
func (c *Cache) setRow(s, w int, b uint64) {
	i, sh := s*c.words+w>>3, w&7*8
	c.rows[i] = c.rows[i]&^(0xFF<<sh) | b<<sh
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Latency returns the configured access latency.
func (c *Cache) Latency() uint64 { return c.cfg.Latency }

// SetOf returns the set index for a line.
func (c *Cache) SetOf(l mem.Line) int { return int(uint64(l) & uint64(c.cfg.Sets-1)) }

// find returns l's set and the way holding l, -1 when absent, which it then
// records in c.absent. It tests eight ways per row word and compares a tag
// only where the fingerprint matched.
func (c *Cache) find(l mem.Line) (set, way int) {
	set = c.SetOf(l)
	base, fp := set*c.cfg.Ways, fingerprint(l)*lsb
	for i, word := range c.row(set) {
		for m := zeroBytes(word ^ fp); m != 0; m &= m - 1 {
			if w := i*8 + firstByte(m); c.lines[base+w].tag == l {
				return set, w
			}
		}
	}
	c.absent = l
	return set, -1
}

// portWindow is the port rate limiter's bucket width in cycles: a cache
// with P ports serves at most P*portWindow accesses per portWindow cycles.
const portWindow = 64

// PortDelay models port contention as a bucketed rate limit and returns the
// queueing delay for an access arriving at cycle now (see mem.RateLimiter
// for why arrival-order insensitivity matters here).
//
// Demand accesses have priority: hardware services them from a separate
// queue ahead of prefetch and metadata traffic, so they consume a port slot
// but never wait behind low-priority work.
func (c *Cache) PortDelay(now uint64, demand bool) uint64 {
	delay := c.port.Charge(now, 1)
	if demand {
		return 0
	}
	c.Stats.PortStallCycles += delay
	return delay
}

// MSHRReserve claims an MSHR for a miss beginning at start, returning the
// slot and the stall (if any) until one frees. The caller must complete the
// reservation with MSHRComplete once the fill time is known.
func (c *Cache) MSHRReserve(start uint64) (slot int, delay uint64) {
	oldest := c.mshr[c.mshrI]
	if oldest > start {
		delay = oldest - start
	}
	slot = c.mshrI
	c.mshr[slot] = start + delay // placeholder until MSHRComplete
	if c.mshrI++; c.mshrI == len(c.mshr) {
		c.mshrI = 0
	}
	c.Stats.MSHRStallCycles += delay
	c.mshrPending++
	if delay > 0 && c.tel.Enabled(telemetry.Debug) {
		c.tel.Eventf(start, telemetry.Debug, "mshr-full",
			"all %d MSHRs busy; miss stalled %d cycles", len(c.mshr), delay)
	}
	return slot, delay
}

// MSHRComplete records the fill time of a reserved MSHR, freeing it then.
func (c *Cache) MSHRComplete(slot int, ready uint64) {
	if ready > c.mshr[slot] {
		c.mshr[slot] = ready
	}
	c.mshrPending--
}

// LookupResult reports the outcome of a cache lookup.
type LookupResult struct {
	Hit bool
	// WasPrefetched is set when a demand access hit a line installed by a
	// prefetch that had not yet been used — a useful prefetch.
	WasPrefetched bool
	// ExtraWait is the additional delay when the hit line's fill is still
	// in flight (a late prefetch).
	ExtraWait uint64
}

// Lookup searches for the access's line, updating replacement and
// prefetch-bit state. now is the cycle the access reaches this level.
func (c *Cache) Lookup(now uint64, a mem.Access) LookupResult {
	demand := a.Kind.IsDemand()
	if demand {
		c.Stats.DemandAccesses++
	} else if a.Kind == mem.Prefetch {
		c.Stats.PrefetchAccesses++
	}
	res, hit := c.lookupHit(now, a)
	if !hit && demand {
		c.Stats.DemandMisses++
	}
	return res
}

// LookupResident is Lookup restricted to resident lines: one tag walk that
// applies Lookup's full side effects on a hit and none at all on a miss.
// It replaces the Probe-then-Lookup double scan on prefetch promote paths,
// where an absent line must not count as a cache access.
func (c *Cache) LookupResident(now uint64, a mem.Access) (LookupResult, bool) {
	res, hit := c.lookupHit(now, a)
	if hit {
		if a.Kind.IsDemand() {
			c.Stats.DemandAccesses++
		} else if a.Kind == mem.Prefetch {
			c.Stats.PrefetchAccesses++
		}
	}
	return res, hit
}

// lookupHit performs the tag walk, applying every hit-side effect (stats,
// prefetch bit, replacement, dirty marking) when the line is found and
// touching nothing when it is not. Access/miss counting is the caller's.
func (c *Cache) lookupHit(now uint64, a mem.Access) (LookupResult, bool) {
	set, w := c.find(a.Line())
	if w < 0 {
		return LookupResult{}, false
	}
	ln := &c.lines[set*c.cfg.Ways+w]
	demand := a.Kind.IsDemand()
	res := LookupResult{Hit: true}
	late := false
	if ready := ln.readyAt(); ready > now {
		res.ExtraWait = ready - now
		if demand {
			c.Stats.ExtraWaitCycles += res.ExtraWait
			if ln.prefetched() {
				c.Stats.LatePrefetches++
				late = true
			}
		}
	}
	if demand {
		c.Stats.DemandHits++
		if ln.prefetched() {
			res.WasPrefetched = true
			ln.st &^= stPrefetched
			c.Stats.UsefulPrefetches++
			if late {
				c.Stats.Sources[ln.src()].UsefulLate++
			} else {
				c.Stats.Sources[ln.src()].UsefulTimely++
			}
		}
	} else if a.Kind == mem.Prefetch {
		c.Stats.PrefetchHits++
	}
	if a.Kind == mem.Store {
		ln.st |= stDirty
	}
	c.repl.Touch(set, w)
	return res, true
}

// Probe reports whether the line is resident, without touching any state.
func (c *Cache) Probe(l mem.Line) bool {
	_, w := c.find(l)
	return w >= 0
}

// Fill installs a line, returning the displaced victim (Valid=false when an
// empty way absorbed the fill). readyAt is the cycle the fill data arrives,
// below 2^56; a src other than SrcDemand marks the line prefetch-installed
// for coverage accounting and attributes its lifecycle to that prefetcher.
func (c *Cache) Fill(a mem.Access, readyAt uint64, src Source) Victim {
	if readyAt > maxReady {
		panic(fmt.Sprintf("cache %s: fill ready cycle %d is 2^56 or more", c.cfg.Name, readyAt))
	}
	prefetch := src != SrcDemand
	dirty := a.Kind == mem.Store || a.Kind == mem.Writeback
	l := a.Line()
	set, w := c.SetOf(l), -1
	if l != c.absent {
		set, w = c.find(l)
	}
	c.absent = noLine
	base := set * c.cfg.Ways
	if w >= 0 {
		ln := &c.lines[base+w]
		// Already present (e.g. a racing fill): refresh in place. A
		// refresh is not a new install, so the resident copy keeps its
		// dirty bit (else the pending writeback is lost), its
		// prefetched/src attribution (a prefetch landing on a
		// demand-owned line earns no coverage credit, and no
		// PrefetchFills/Sources fill is counted — the line was filled
		// once), and whichever fill completes first.
		if dirty {
			ln.st |= stDirty
		}
		if readyAt < ln.readyAt() {
			ln.st = readyAt<<stReadyShift | ln.st&(1<<stReadyShift-1)
		}
		c.repl.Touch(set, w)
		return Victim{}
	}
	way := -1
	for i, word := range c.row(set) {
		if m := zeroBytes(word ^ rowEmpty*lsb); m != 0 {
			way = i*8 + firstByte(m) // the lowest flag is exact
			break
		}
	}
	var victim Victim
	if way < 0 {
		lo := c.ReservedWays(set)
		if lo >= c.cfg.Ways {
			// The whole set is reserved for metadata; cannot cache the line.
			return Victim{}
		}
		way = c.repl.Victim(set, lo)
		ln := &c.lines[base+way]
		victim = Victim{Line: ln.tag, Dirty: ln.dirty(), Prefetched: ln.prefetched(), Valid: true}
		c.Stats.Evictions++
		if ln.dirty() {
			c.Stats.Writebacks++
		}
		if ln.prefetched() {
			c.Stats.UnusedPrefetches++
			c.Stats.Sources[ln.src()].EvictedUnused++
		}
		c.repl.Evict(set, way)
	} else {
		c.occupied++
	}
	st := readyAt<<stReadyShift | uint64(src)<<stSrcShift
	if prefetch {
		c.Stats.PrefetchFills++
		c.Stats.Sources[src].Fills++
		st |= stPrefetched
	}
	if dirty {
		st |= stDirty
	}
	c.lines[base+way] = line{tag: l, st: st}
	c.setRow(set, way, fingerprint(l))
	c.repl.Touch(set, way)
	return victim
}

// MarkDirty sets the dirty bit of a resident line (used when a writeback
// from an upper level lands on a resident copy).
func (c *Cache) MarkDirty(l mem.Line) bool {
	set, w := c.find(l)
	if w >= 0 {
		c.lines[set*c.cfg.Ways+w].st |= stDirty
	}
	return w >= 0
}

// ReservedWays returns the number of ways of set s reserved for metadata:
// the leading run of rowReserved bytes of its row, capped at the
// associativity (a fully reserved row runs on into the padding).
func (c *Cache) ReservedWays(s int) int {
	n := 0
	for _, word := range c.row(s) {
		k := firstByte(^word) // bytes below ^word's lowest set bit are rowReserved
		if n += k; k < 8 {
			break
		}
	}
	return min(n, c.cfg.Ways)
}

// Reserve changes the number of reserved ways in set s to ways, flushing any
// data lines occupying the newly reserved region. It returns the number of
// invalidated lines and how many of them were dirty (writeback traffic the
// repartition caused).
func (c *Cache) Reserve(s, ways int) (flushed, dirty int) {
	if ways < 0 {
		ways = 0
	}
	if ways > c.cfg.Ways {
		ways = c.cfg.Ways
	}
	old := c.ReservedWays(s)
	for w := ways; w < old; w++ {
		c.setRow(s, w, rowEmpty)
	}
	for w := old; w < ways; w++ {
		c.setRow(s, w, rowReserved)
		if ln := &c.lines[s*c.cfg.Ways+w]; ln.tag != noLine {
			flushed++
			if ln.dirty() {
				dirty++
			}
			// A flushed line that was prefetched and never demand-hit left
			// the cache unused, exactly like a replacement eviction; without
			// this the per-source lifecycle partition (fills = useful +
			// evicted-unused + still-resident) leaks one line per flush.
			if ln.prefetched() {
				c.Stats.UnusedPrefetches++
				c.Stats.Sources[ln.src()].EvictedUnused++
			}
			c.repl.Evict(s, w)
			*ln = line{tag: noLine}
		}
	}
	c.occupied -= flushed
	return flushed, dirty
}

// DataWays returns the number of ways of set s available to data.
func (c *Cache) DataWays(s int) int { return c.cfg.Ways - c.ReservedWays(s) }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.cfg.Sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.cfg.Ways }

// CountMeta records metadata traffic served by this cache (the LLC).
func (c *Cache) CountMeta(kind mem.Kind) {
	switch kind {
	case mem.MetaRead:
		c.Stats.MetaReads++
	case mem.MetaWrite:
		c.Stats.MetaWrites++
	}
}

// OccupiedLines returns the number of valid data lines (diagnostics).
func (c *Cache) OccupiedLines() int {
	n := 0
	c.ForEachLine(func(int, int, mem.Line) { n++ })
	return n
}

// OccupancyBreakdown scans the cache and splits its capacity three ways:
// valid lines owned by demand (including prefetched lines a demand has
// since referenced), prefetched lines not yet referenced, and way slots
// reserved for metadata partitions. The scan is read-only; the telemetry
// sampler uses it for the LLC occupancy series.
func (c *Cache) OccupancyBreakdown() (demand, prefetched, reserved int) {
	for s := 0; s < c.cfg.Sets; s++ {
		reserved += c.ReservedWays(s)
	}
	c.ForEachLineState(func(ls LineState) {
		if ls.Prefetched {
			prefetched++
		} else {
			demand++
		}
	})
	return demand, prefetched, reserved
}
