// Package stride implements the PC-localized stride prefetcher used in the
// paper's baseline L1D (Table II: degree 3). Each load PC's last address and
// stride are tracked; after two confirmations the next few strides are
// prefetched.
package stride

import (
	"streamline/internal/mem"
	"streamline/internal/prefetch"
)

const (
	// tableSize is the number of tracked PCs (direct-mapped).
	tableSize = 256
	// degree is how many strides ahead to prefetch (Table II: degree 3).
	degree = 3
	// confidenceMax saturates the per-PC stride confidence.
	confidenceMax = 3
	// threshold is the confidence needed to issue.
	threshold = 2
)

type entry struct {
	last   mem.Line
	stride int64 // in cache lines, never 0 once set: same-line accesses carry no signal
	tag    uint32
	conf   int8 // 0..confidenceMax
	valid  bool
}

// Prefetcher is the IP-stride prefetcher.
type Prefetcher struct {
	table [tableSize]entry
}

// New returns a stride prefetcher.
func New() *Prefetcher { return &Prefetcher{} }

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "ip-stride" }

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(ev prefetch.Event, out []prefetch.Request) []prefetch.Request {
	idx := mem.HashPC(ev.PC, 16) % tableSize
	tag := uint32(mem.HashPC(ev.PC, 24))
	line := ev.Line()
	e := &p.table[idx]
	if !e.valid || e.tag != tag {
		*e = entry{tag: tag, last: line, valid: true}
		return out
	}
	s := int64(line) - int64(e.last)
	if s == 0 {
		return out // same line: sub-line strides carry no prefetch signal
	}
	if s == e.stride {
		if e.conf < confidenceMax {
			e.conf++
		}
	} else {
		e.conf--
		if e.conf <= 0 {
			e.conf = 0
			e.stride = s
		}
	}
	e.last = line
	if e.conf >= threshold {
		for d := 1; d <= degree; d++ {
			target := int64(line) + e.stride*int64(d)
			if target < 0 {
				break
			}
			out = append(out, prefetch.Request{Addr: mem.AddrOf(mem.Line(target))})
		}
	}
	return out
}
