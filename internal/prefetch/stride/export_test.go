package stride

import "streamline/internal/mem"

// Slot is a table slot as plain values, for the external lockstep test.
type Slot struct {
	Tag          uint64
	Last         mem.Line
	Stride, Conf int64
}

// Slot returns table slot k, nil when no PC holds it.
func (p *Prefetcher) Slot(k int) *Slot {
	e := p.table[k]
	if !e.valid {
		return nil
	}
	return &Slot{Tag: uint64(e.tag), Last: e.last, Stride: e.stride, Conf: int64(e.conf)}
}
