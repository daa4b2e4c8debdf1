// Package stride implements the PC-localized stride prefetcher used in the
// paper's baseline L1D (Table II: degree 3). Each load PC's last address and
// stride are tracked; after two confirmations the next few strides are
// prefetched.
package stride

import (
	"streamline/internal/mem"
	"streamline/internal/prefetch"
)

// Config parameterizes the prefetcher.
type Config struct {
	// TableSize is the number of tracked PCs (direct-mapped).
	TableSize int
	// Degree is how many strides ahead to prefetch.
	Degree int
	// ConfidenceMax saturates the per-PC stride confidence.
	ConfidenceMax int
	// Threshold is the confidence needed to issue.
	Threshold int
}

// DefaultConfig matches the baseline configuration.
var DefaultConfig = Config{TableSize: 256, Degree: 3, ConfidenceMax: 3, Threshold: 2}

type entry struct {
	tag    uint32
	last   mem.Line
	stride int64 // in cache lines; same-line accesses carry no signal
	conf   int
	valid  bool
}

// Prefetcher is the IP-stride prefetcher.
type Prefetcher struct {
	cfg   Config
	table []entry
	size  mem.Divisor // len(table), for Train's index
}

// New returns a stride prefetcher.
func New(cfg Config) *Prefetcher {
	if cfg.TableSize <= 0 {
		cfg.TableSize = DefaultConfig.TableSize
	}
	if cfg.Degree <= 0 {
		cfg.Degree = DefaultConfig.Degree
	}
	if cfg.ConfidenceMax <= 0 {
		cfg.ConfidenceMax = DefaultConfig.ConfidenceMax
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = DefaultConfig.Threshold
	}
	return &Prefetcher{cfg: cfg, table: make([]entry, cfg.TableSize), size: mem.NewDivisor(cfg.TableSize)}
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "ip-stride" }

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(ev prefetch.Event, out []prefetch.Request) []prefetch.Request {
	idx := p.size.Mod(mem.HashPC(ev.PC, 16))
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
		if e.conf < p.cfg.ConfidenceMax {
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
	if e.conf >= p.cfg.Threshold && e.stride != 0 {
		for d := 1; d <= p.cfg.Degree; d++ {
			target := int64(line) + e.stride*int64(d)
			if target < 0 {
				break
			}
			out = append(out, prefetch.Request{Addr: mem.AddrOf(mem.Line(target))})
		}
	}
	return out
}
