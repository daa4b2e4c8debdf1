package core

import (
	"streamline/internal/mem"
	"streamline/internal/meta"
)

// tpMockingjay is Streamline's metadata replacement policy (Section IV-E5):
// Mockingjay's sampled reuse-distance machinery retargeted to emulate
// TP-MIN instead of Belady's MIN. Sampler entries store correlations —
// hashed trigger and first target — so the reuse distance being learned is
// that of the *correlation*, not the trigger: a trigger that recurs with a
// different target trains toward "no reuse", exactly the utility signal of
// Figure 6. Each resident entry carries a 3-bit estimated-time-remaining
// counter decayed by a per-set clock; the victim is the entry with the
// largest |ETR| (longest-dead or furthest-future).
type tpMockingjay struct {
	slots int

	// etr is each slot's 3-bit signed scaled time remaining (-4..3), flat
	// and set-major (set*slots+slot) like the store's own keys.
	etr []int8

	rdp []int8 // predicted correlation reuse distance per hashed PC

	samplers    map[int]*tpSampler
	clock       []uint8
	granularity uint8
}

const (
	tpRDPBits   = 8 // 8-bit hashed PC (paper's sampler entry)
	tpMaxETR    = 3 // 3-bit signed ETR: [-4, 3]
	tpMinETR    = -4
	tpInfRD     = 63
	tpSamplerSz = 32 // per sampled set (paper: 32-set, 10-way sampler per 8 sampled LLC sets)
)

// tpSample is one sampled correlation observation.
type tpSample struct {
	valid bool
	corr  uint16 // hashed (trigger, first target) pair
	pc    uint8
	ts    uint8
}

type tpSampler struct {
	entries [tpSamplerSz]tpSample
	now     uint8
}

// NewTPMockingjay returns the TP-Mockingjay entry policy factory for a
// metadata store with the given geometry.
func NewTPMockingjay(sets, slots int) meta.EntryPolicy {
	p := &tpMockingjay{
		slots:       slots,
		etr:         make([]int8, sets*slots),
		rdp:         make([]int8, 1<<tpRDPBits),
		samplers:    make(map[int]*tpSampler),
		clock:       make([]uint8, sets),
		granularity: uint8(max(1, slots/4)),
	}
	for i := range p.rdp {
		p.rdp[i] = -1
	}
	// Sample 8 sets out of every 2048 (every 256th); small stores sample
	// every set so tests exercise the machinery.
	stride := 256
	if sets < 512 {
		stride = max(1, sets/8)
	}
	for s := 0; s < sets; s += stride {
		p.samplers[s] = &tpSampler{}
	}
	return p
}

func corrHash(a meta.EntryAccess) uint16 {
	// Hash the full correlation: trigger AND first target. This is the
	// TP-MIN reformulation — MIN would hash only the trigger.
	h := mem.HashLine64(a.Trigger) ^ (mem.HashLine64(a.FirstTarget) >> 16)
	return uint16(h>>13) ^ uint16(h)
}

func (p *tpMockingjay) pcSig(pc mem.PC) uint8 { return uint8(mem.HashPC(pc, tpRDPBits)) }

// train blends an observed correlation reuse distance into the RDP.
func (p *tpMockingjay) train(sig uint8, observed int8) {
	cur := p.rdp[sig]
	if cur < 0 {
		p.rdp[sig] = observed
		return
	}
	d := observed - cur
	step := d / 4
	if step == 0 && d != 0 {
		if d > 0 {
			step = 1
		} else {
			step = -1
		}
	}
	n := cur + step
	if n < 0 {
		n = 0
	}
	if n > tpInfRD {
		n = tpInfRD
	}
	p.rdp[sig] = n
}

// sample feeds the sampled sets: re-observing the same correlation measures
// its reuse distance; evicting a never-reused correlation trains its PC
// toward scan treatment.
func (p *tpMockingjay) sample(set int, a meta.EntryAccess) {
	s, ok := p.samplers[set]
	if !ok {
		return
	}
	s.now++
	c := corrHash(a)
	sig := p.pcSig(a.PC)
	oldest, oldestAge := 0, -1
	for i := range s.entries {
		e := &s.entries[i]
		if e.valid && e.corr == c {
			p.train(e.pc, int8(s.now-e.ts))
			e.pc = sig
			e.ts = s.now
			return
		}
		age := int(s.now - e.ts)
		if !e.valid {
			age = 1 << 16
		}
		if age > oldestAge {
			oldest, oldestAge = i, age
		}
	}
	if s.entries[oldest].valid {
		p.train(s.entries[oldest].pc, tpInfRD)
	}
	s.entries[oldest] = tpSample{valid: true, corr: c, pc: sig, ts: s.now}
}

// tick decays every ETR in the set once per granularity accesses.
func (p *tpMockingjay) tick(set int) {
	p.clock[set]++
	if p.clock[set] < p.granularity {
		return
	}
	p.clock[set] = 0
	etr := p.etr[set*p.slots : (set+1)*p.slots]
	for i := range etr {
		if etr[i] > tpMinETR {
			etr[i]--
		}
	}
}

// predict converts the PC's RDP value into a 3-bit ETR.
func (p *tpMockingjay) predict(pc mem.PC) int8 {
	rd := p.rdp[p.pcSig(pc)]
	if rd < 0 {
		return 1 // untrained: middle-of-the-road protection
	}
	e := rd / int8(p.granularity)
	if e > tpMaxETR {
		e = tpMaxETR
	}
	return e
}

func (p *tpMockingjay) Touch(set, slot int, a meta.EntryAccess) {
	p.sample(set, a)
	p.tick(set)
	p.etr[set*p.slots+slot] = p.predict(a.PC)
}

func (p *tpMockingjay) Fill(set, slot int, a meta.EntryAccess) {
	p.sample(set, a)
	p.tick(set)
	p.etr[set*p.slots+slot] = p.predict(a.PC)
}

func (p *tpMockingjay) Evict(set, slot int) { p.etr[set*p.slots+slot] = 0 }

func (p *tpMockingjay) Victim(set, lo, hi int, _ meta.EntryAccess) int {
	etr := p.etr[set*p.slots : set*p.slots+hi]
	best, bestAbs := lo, int8(-1)
	for c := lo; c < hi; c++ {
		e := etr[c]
		abs := e
		if abs < 0 {
			abs = -abs
		}
		if abs > bestAbs || (abs == bestAbs && e < 0 && etr[best] >= 0) {
			best, bestAbs = c, abs
		}
	}
	return best
}
