// Package stms implements an STMS-style off-chip temporal prefetcher
// (Wenisch et al., HPCA 2009), the design generation the paper's on-chip
// prefetchers replaced. Its metadata — a global history buffer (GHB) of the
// miss stream plus an index table mapping addresses to their latest GHB
// position — lives in DRAM. Writes are amortized through a coalescing
// buffer and probabilistic sampling; reads fetch long stream chunks to
// amortize their latency. The cost the paper's Section II-A1 highlights is
// exactly what this model charges: every metadata access is DRAM traffic
// with DRAM latency, competing with demand bandwidth.
package stms

import (
	"streamline/internal/mem"
	"streamline/internal/prefetch"
)

// DRAM is the slice of the memory system the prefetcher's metadata engine
// uses; *dram.DRAM satisfies it.
type DRAM interface {
	// Access reads one line at cycle now, returning its latency.
	Access(now uint64, l mem.Line, write bool) uint64
	// Write enqueues a writeback (bandwidth only, no waiter).
	Write(now uint64, l mem.Line)
}

// The published design's intent.
const (
	// ghbEntries is the history buffer capacity (off-chip; large).
	ghbEntries = 1 << 20
	// indexCacheEntries is the small on-chip cache of index-table rows.
	indexCacheEntries = 1024
	// streamChunk is how many history entries one metadata read returns
	// (read amortization: a chunk is contiguous in DRAM).
	streamChunk = 16
	// maxDegree bounds prefetches per trigger.
	maxDegree = 4
	// samplePeriod writes only one in N history appends to DRAM
	// (probabilistic write amortization).
	samplePeriod = 2
	// metadataBase is the line address region where metadata lives.
	metadataBase mem.Line = 1 << 40
)

// Stats counts the prefetcher's off-chip metadata activity.
type Stats struct {
	// IndexReads/IndexWrites and GHBReads/GHBWrites are DRAM accesses
	// (64B lines) for each structure.
	IndexReads  uint64
	IndexWrites uint64
	GHBReads    uint64
	GHBWrites   uint64
	// IndexCacheHits avoided an off-chip index read.
	IndexCacheHits uint64
	// StreamsFollowed counts successful stream fetches.
	StreamsFollowed uint64
}

// OffchipTraffic returns total metadata DRAM accesses.
func (s Stats) OffchipTraffic() uint64 {
	return s.IndexReads + s.IndexWrites + s.GHBReads + s.GHBWrites
}

type indexCacheEntry struct {
	valid bool
	tag   mem.Line
	pos   int
	lru   uint64
}

// Prefetcher is the STMS-style off-chip temporal prefetcher.
type Prefetcher struct {
	dram DRAM

	// The functional metadata (what DRAM "contains").
	ghb   []mem.Line
	head  int
	index map[mem.Line]int // address -> latest GHB position

	icache [indexCacheEntries]indexCacheEntry
	clock  uint64
	events uint64

	// Recently issued lines, skipped for timeliness as in the on-chip
	// models; one window for the whole prefetcher, not one per PC.
	issued prefetch.Issued

	Stats Stats
}

// New constructs the prefetcher over the given DRAM.
func New(d DRAM) *Prefetcher {
	return &Prefetcher{
		dram:  d,
		ghb:   make([]mem.Line, ghbEntries),
		index: make(map[mem.Line]int),
	}
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "stms" }

// metaLine maps a metadata structure offset to a DRAM line for traffic
// accounting (index rows and GHB chunks are line-sized).
func (p *Prefetcher) metaLine(offset int) mem.Line {
	return metadataBase + mem.Line(offset)
}

// icacheLookup checks the on-chip index cache.
func (p *Prefetcher) icacheLookup(l mem.Line) (int, bool) {
	slot := mem.HashLine64(l) % indexCacheEntries
	e := &p.icache[slot]
	if e.valid && e.tag == l {
		p.clock++
		e.lru = p.clock
		return e.pos, true
	}
	return 0, false
}

func (p *Prefetcher) icacheFill(l mem.Line, pos int) {
	slot := mem.HashLine64(l) % indexCacheEntries
	p.clock++
	p.icache[slot] = indexCacheEntry{valid: true, tag: l, pos: pos, lru: p.clock}
}

// Train implements prefetch.Prefetcher: append the miss to the GHB, look up
// the address's previous occurrence, and prefetch the stream that followed
// it. All metadata movement is charged to DRAM.
func (p *Prefetcher) Train(ev prefetch.Event, out []prefetch.Request) []prefetch.Request {
	line := ev.Line()
	p.events++

	// ---- record: append to the GHB and update the index.
	p.ghb[p.head] = line
	prevPos, hadPrev := p.index[line]
	p.index[line] = p.head
	myPos := p.head
	p.head = (p.head + 1) % ghbEntries
	// Write amortization: appends coalesce; only sampled appends (and
	// their index update) pay a DRAM write.
	if p.events%samplePeriod == 0 {
		p.dram.Write(ev.Now, p.metaLine(myPos/8)) // 8 GHB entries per line
		p.Stats.GHBWrites++
		p.dram.Write(ev.Now, p.metaLine(1<<20+int(mem.HashLine64(line)%(1<<19))))
		p.Stats.IndexWrites++
	}
	p.icacheFill(line, myPos)

	if !hadPrev {
		return out
	}

	// ---- prefetch: find the previous occurrence and fetch its stream.
	var delay uint64
	if _, hit := p.icacheLookup(line); hit {
		p.Stats.IndexCacheHits++
	} else {
		// Off-chip index read.
		delay += p.dram.Access(ev.Now, p.metaLine(1<<20+int(mem.HashLine64(line)%(1<<19))), false)
		p.Stats.IndexReads++
	}

	// Stream fetch: streamChunk entries = chunk/8 line reads from the GHB.
	for i := 0; i < (streamChunk+7)/8; i++ {
		delay += p.dram.Access(ev.Now+delay, p.metaLine(prevPos/8+i), false)
		p.Stats.GHBReads++
	}
	p.Stats.StreamsFollowed++

	issued := 0
	for i := 1; i <= streamChunk && issued < maxDegree; i++ {
		pos := (prevPos + i) % ghbEntries
		if pos == p.head {
			break // reached the present
		}
		t := p.ghb[pos]
		if t == 0 || t == line || p.issued.Has(t) {
			continue
		}
		out = append(out, prefetch.Request{Addr: mem.AddrOf(t), Delay: delay})
		p.issued.Mark(t)
		issued++
	}
	return out
}
