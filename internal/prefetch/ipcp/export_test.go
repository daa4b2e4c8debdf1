package ipcp

import "streamline/internal/mem"

// Slot is an IP-table slot as plain values, for the external lockstep test.
type Slot struct {
	Tag          uint64
	Last         mem.Line
	Stride, Conf int64
	Sig          int
}

// Slot returns IP-table slot k, nil when no PC holds it.
func (p *Prefetcher) Slot(k int) *Slot {
	e := p.ips[k]
	if !e.valid {
		return nil
	}
	return &Slot{Tag: uint64(e.tag), Last: e.last, Stride: e.stride, Conf: int64(e.strideOK), Sig: int(e.sig)}
}

// Signature returns the delta and the confidence of signature s's entry.
func (p *Prefetcher) Signature(s int) (delta, conf int64) {
	return p.cplxDelta[s], int64(p.cplxConf[s])
}

// Window returns the global-stream window's regions, oldest first.
func (p *Prefetcher) Window() []mem.Line {
	return append(append([]mem.Line(nil), p.gsWindow[p.gsNext:]...), p.gsWindow[:p.gsNext]...)
}
