// Package triage implements the Triage temporal prefetcher (Wu et al.,
// MICRO 2019), the first to keep its metadata entirely on chip in an LLC
// partition. Triage stores pairwise correlations compressed with a lookup
// table: each target is a 10-bit LUT index plus an 11-bit tag, fitting 16
// correlations per block — at an accuracy cost, because LUT entries that get
// recycled silently redirect older correlations to the wrong region (the
// effect Triangel's authors quantified and this model reproduces).
//
// The paper uses an idealized Triage with unlimited metadata to define its
// "irregular subset" of benchmarks (Section V-A3); NewIdeal builds that
// variant.
package triage

import (
	"math/bits"

	"streamline/internal/mem"
	"streamline/internal/meta"
	"streamline/internal/prefetch"
)

// The paper's Triage configuration.
const (
	// tuSize is the number of training-unit entries.
	tuSize = 256
	// maxDegree bounds the prefetch chain.
	maxDegree = 4
)

// Config parameterizes Triage.
type Config struct {
	// MetaBytes is the metadata partition size. Triage holds it for the
	// whole run: the model has no partitioner, so the partition is never
	// resized (a known divergence, see EXPERIMENTS.md).
	MetaBytes int
	// LUTSize is the target-compression lookup table capacity (1024).
	LUTSize int
}

// DefaultConfig returns the paper's Triage configuration.
func DefaultConfig() Config {
	return Config{MetaBytes: 1 << 20, LUTSize: 1024}
}

// lut is the target-region lookup table: regions (line >> 11) are assigned
// 10-bit indices round-robin; recycling an index corrupts the correlations
// that still reference it.
type lut struct {
	regions []uint64 // index -> region
	next    int

	// byReg is the reverse index, region -> LUT index: an open-addressed,
	// linearly probed table of indices into regions, at most half full,
	// keyed by the region each index holds. noIndex marks an empty cell.
	byReg []int32
	shift uint // 64 - log2(len(byReg))
}

const noIndex = -1

func newLUT(size int) *lut {
	cells := 2
	for cells < 2*size {
		cells *= 2
	}
	l := &lut{
		regions: make([]uint64, size),
		byReg:   make([]int32, cells),
		shift:   64 - uint(bits.TrailingZeros(uint(cells))),
	}
	for i := range l.byReg {
		l.byReg[i] = noIndex
	}
	return l
}

// home returns the cell where the probe sequence for region starts.
func (l *lut) home(region uint64) int {
	return int(region * 0x9e3779b97f4a7c15 >> l.shift)
}

// cell returns the cell of byReg holding region's index, or the empty cell
// that ends its probe sequence.
func (l *lut) cell(region uint64) int {
	mask := len(l.byReg) - 1
	c := l.home(region)
	for l.byReg[c] != noIndex && l.regions[l.byReg[c]] != region {
		c = (c + 1) & mask
	}
	return c
}

// unmap removes region from the reverse index, if present, shifting the
// rest of its probe run back so no lookup crosses a hole.
func (l *lut) unmap(region uint64) {
	mask := len(l.byReg) - 1
	hole := l.cell(region)
	if l.byReg[hole] == noIndex {
		return
	}
	for c := (hole + 1) & mask; l.byReg[c] != noIndex; c = (c + 1) & mask {
		// The entry at c may fill the hole unless its home lies
		// cyclically in (hole, c].
		if (c-l.home(l.regions[l.byReg[c]]))&mask >= (c-hole)&mask {
			l.byReg[hole] = l.byReg[c]
			hole = c
		}
	}
	l.byReg[hole] = noIndex
}

// encode returns the LUT index for the target's region, allocating (and
// possibly recycling) as needed. Recycling an index unmaps the region it
// held — before the first lap, the zero region, like any other.
func (l *lut) encode(target mem.Line) int {
	region := uint64(target) >> 11
	c := l.cell(region)
	if idx := l.byReg[c]; idx != noIndex {
		return int(idx)
	}
	idx := l.next
	l.next = (l.next + 1) % len(l.regions)
	l.unmap(l.regions[idx])
	l.regions[idx] = region
	l.byReg[l.cell(region)] = int32(idx)
	return idx
}

// decode reconstructs a target from its compressed form; if the LUT slot was
// recycled since encoding, the result silently points into the wrong region.
func (l *lut) decode(idx int, low mem.Line) mem.Line {
	return mem.Line(l.regions[idx]<<11) | (low & (1<<11 - 1))
}

// tuEntry tracks a PC's last access and its recently issued prefetches
// (skipped without spending degree, so the chain runs ahead of the demand
// stream — the lead that makes prefetches timely). The window is allocated
// when a PC first claims the entry.
type tuEntry struct {
	tag    uint32
	last   mem.Line
	valid  bool
	issued *prefetch.Issued
}

// idealEntry is a correlation in the unlimited ideal store.
type idealEntry struct {
	target mem.Line
}

// Prefetcher is the Triage temporal prefetcher.
type Prefetcher struct {
	store *meta.Store
	lut   *lut
	tu    []tuEntry

	// ideal, when non-nil, is the unlimited dedicated store of the ideal
	// variant, which then has neither store nor lut.
	ideal map[mem.Line]idealEntry

	// insTarget backs the one-element Targets slice of pairwise inserts;
	// the store copies what it keeps.
	insTarget [1]mem.Line
}

// New constructs Triage over the given LLC bridge.
func New(cfg Config, bridge meta.Bridge) *Prefetcher {
	return &Prefetcher{
		tu:  make([]tuEntry, tuSize),
		lut: newLUT(cfg.LUTSize),
		store: meta.NewStore(meta.StoreConfig{
			Format:         meta.PairwiseCompressed,
			MetaWaysPerSet: 8,
			MaxBytes:       cfg.MetaBytes,
			Policy:         meta.NewEntryLRU, // stands in for Triage's Hawkeye-managed metadata
		}, bridge),
	}
}

// NewIdeal returns the unlimited-metadata Triage used to define the
// irregular subset: uncompressed correlations in dedicated storage.
func NewIdeal() *Prefetcher {
	return &Prefetcher{
		tu:    make([]tuEntry, tuSize),
		ideal: make(map[mem.Line]idealEntry),
	}
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string {
	if p.ideal != nil {
		return "triage-ideal"
	}
	return "triage"
}

// MetaStats implements prefetch.MetaReporter.
func (p *Prefetcher) MetaStats() meta.Stats {
	if p.store == nil {
		return meta.Stats{}
	}
	return p.store.Stats
}

// Train implements prefetch.Prefetcher: on an L2 miss or prefetch hit,
// record the correlation from the PC's previous access and chase the chain.
func (p *Prefetcher) Train(ev prefetch.Event, out []prefetch.Request) []prefetch.Request {
	line := ev.Line()
	idx := mem.HashPC(ev.PC, 16) % tuSize
	tag := uint32(mem.HashPC(ev.PC, 24))
	tu := &p.tu[idx]

	if !tu.valid || tu.tag != tag {
		*tu = tuEntry{tag: tag, last: line, valid: true, issued: prefetch.ResetIssued(tu.issued)}
		return out
	}
	trigger := tu.last
	tu.last = line
	if trigger == line {
		return out
	}

	if p.ideal != nil {
		p.ideal[trigger] = idealEntry{target: line}
		cur := line
		issued := 0
		for hops := 0; issued < maxDegree && hops < maxDegree+16; hops++ {
			e, ok := p.ideal[cur]
			if !ok {
				break
			}
			if !tu.issued.Has(e.target) {
				out = append(out, prefetch.Request{Addr: mem.AddrOf(e.target)})
				tu.issued.Mark(e.target)
				issued++
			}
			cur = e.target
		}
		return out
	}

	// Compressed store: the target round-trips through the LUT, so stale
	// LUT slots produce wrong-region prefetches exactly as in hardware.
	lutIdx := p.lut.encode(line)
	compressed := mem.Line(uint64(lutIdx)<<48) | (line & (1<<11 - 1))
	p.insTarget[0] = compressed
	p.store.Insert(ev.Now, ev.PC, meta.Entry{Trigger: trigger, Targets: p.insTarget[:]})

	cur := line
	var delay uint64
	issued := 0
	for hops := 0; issued < maxDegree && hops < maxDegree+8; hops++ {
		hit, found, lat := p.store.Lookup(ev.Now+delay, ev.PC, cur)
		if !found {
			break
		}
		delay += lat
		enc := hit.First()
		target := p.lut.decode(int(uint64(enc)>>48), enc)
		if !tu.issued.Has(target) {
			out = append(out, prefetch.Request{Addr: mem.AddrOf(target), Delay: delay})
			tu.issued.Mark(target)
			issued++
		}
		cur = target
	}
	return out
}

// Store exposes the metadata store (nil for the ideal variant).
func (p *Prefetcher) Store() *meta.Store { return p.store }
