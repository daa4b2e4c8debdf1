// Package ipcp implements the IPCP prefetcher (Pakalapati & Panda, ISCA
// 2020): each instruction pointer is classified as constant-stride (CS),
// complex-stride (CPLX, via a delta-signature table), or global-stream (GS),
// and the strongest class prefetches. IPCP is one of Figure 11c's L2
// regular-prefetcher baselines.
package ipcp

import (
	"streamline/internal/mem"
	"streamline/internal/prefetch"
)

// The published configuration's intent.
const (
	// tableSize is the number of tracked instruction pointers.
	tableSize = 256
	// csDegree is how many strides ahead the constant-stride class prefetches.
	csDegree = 4
	// cplxDepth is the lookahead depth through the delta signature table.
	cplxDepth = 3
	// gsDegree is how many lines ahead the global-stream class prefetches.
	gsDegree = 4
)

type ipEntry struct {
	last     mem.Line
	stride   int64 // nonzero once set, as a delta of 0 trains nothing
	tag      uint32
	sig      uint16
	strideOK int8 // CS confidence, 0..3
	valid    bool
}

// Prefetcher is the IPCP prefetcher.
type Prefetcher struct {
	ips [tableSize]ipEntry
	// cplxDelta and cplxConf are the delta signature table, indexed by
	// signature, with each confidence held in 0..3. As with a stride, a
	// delta is only set from a nonzero one, so a confident delta is never 0.
	cplxDelta [1 << 12]int64
	cplxConf  [1 << 12]int8

	// Global stream detector: recent line window occupancy.
	gsWindow [32]mem.Line
	gsNext   int
}

// New returns an IPCP instance.
func New() *Prefetcher { return &Prefetcher{} }

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "ipcp" }

func nextSig(sig uint16, delta int64) uint16 {
	return (sig<<3 ^ uint16(uint64(delta)&0x3f)) & 0xfff
}

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(ev prefetch.Event, out []prefetch.Request) []prefetch.Request {
	line := ev.Line()
	idx := mem.HashPC(ev.PC, 16) % tableSize
	tag := uint32(mem.HashPC(ev.PC, 24))
	e := &p.ips[idx]
	if !e.valid || e.tag != tag {
		*e = ipEntry{tag: tag, valid: true, last: line}
		return out
	}
	delta := int64(line) - int64(e.last)
	if delta == 0 {
		return out
	}

	// CS classification.
	if delta == e.stride {
		if e.strideOK < 3 {
			e.strideOK++
		}
	} else {
		e.strideOK--
		if e.strideOK <= 0 {
			e.strideOK = 0
			e.stride = delta
		}
	}

	// CPLX: train the delta signature table.
	cd, cc := &p.cplxDelta[e.sig], &p.cplxConf[e.sig]
	if *cd == delta {
		if *cc < 3 {
			*cc++
		}
	} else {
		*cc--
		if *cc <= 0 {
			*cc = 0
			*cd = delta
		}
	}
	sig := nextSig(e.sig, delta)

	// GS: detect dense region streaming.
	p.gsWindow[p.gsNext] = line >> 5 // 2KB region
	p.gsNext = (p.gsNext + 1) % len(p.gsWindow)
	dense := 0
	for _, r := range &p.gsWindow {
		if r == line>>5 {
			dense++
		}
	}

	e.last = line
	e.sig = sig

	switch {
	case e.strideOK >= 2:
		// Constant stride: the strongest class.
		for d := 1; d <= csDegree; d++ {
			t := int64(line) + e.stride*int64(d)
			if t <= 0 {
				break
			}
			out = append(out, prefetch.Request{Addr: mem.AddrOf(mem.Line(t))})
		}
	case p.cplxConf[sig] >= 2:
		// Complex stride: walk the signature chain.
		cur := int64(line)
		s := sig
		for i := 0; i < cplxDepth; i++ {
			if p.cplxConf[s] < 2 {
				break
			}
			cur += p.cplxDelta[s]
			if cur <= 0 {
				break
			}
			out = append(out, prefetch.Request{Addr: mem.AddrOf(mem.Line(cur))})
			s = nextSig(s, p.cplxDelta[s])
		}
	case dense >= 24:
		// Global stream: prefetch ahead in the region.
		for d := 1; d <= gsDegree; d++ {
			out = append(out, prefetch.Request{Addr: mem.AddrOf(line + mem.Line(d))})
		}
	}
	return out
}
