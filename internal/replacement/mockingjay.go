package replacement

import "streamline/internal/mem"

// mockingjay implements the Mockingjay replacement policy (Shah, Jain & Lin,
// HPCA 2022): a sampled reuse-distance predictor (RDP) estimates each load
// PC's reuse distance, each cached line carries an estimated-time-remaining
// (ETR) counter that a per-set clock decays, and the victim is the line with
// the largest |ETR| — either long-dead or furthest-future. Streamline's
// TP-Mockingjay (internal/core) specializes this machinery to correlations.
type mockingjay struct {
	sets, ways int

	etr []int16

	rdp []int16 // predicted reuse distance per PC signature, in clock units

	sampler     map[int]*mjSampler
	clock       []uint8 // per-set access counter driving ETR decay
	granularity uint8   // set accesses per ETR tick
}

const (
	mjSigBits    = 11
	mjInfRD      = 127 // scan prediction: effectively never reused
	mjMaxETR     = 127
	mjSamplerWay = 10
)

// mjSampler tracks recent accesses to one sampled set to measure observed
// reuse distances.
type mjSampler struct {
	valid []bool
	tag   []uint16
	pc    []uint16
	ts    []uint8
	now   uint8
}

// NewMockingjay returns the Mockingjay policy.
func NewMockingjay(sets, ways int) Policy {
	p := &mockingjay{
		sets: sets, ways: ways,
		etr:         make([]int16, sets*ways),
		rdp:         make([]int16, 1<<mjSigBits),
		sampler:     make(map[int]*mjSampler),
		clock:       make([]uint8, sets),
		granularity: uint8(max(1, ways/2)),
	}
	for i := range p.rdp {
		p.rdp[i] = -1 // untrained
	}
	stride := 16
	if sets < 64 {
		stride = 1
	}
	for s := 0; s < sets; s += stride {
		p.sampler[s] = &mjSampler{
			valid: make([]bool, mjSamplerWay),
			tag:   make([]uint16, mjSamplerWay),
			pc:    make([]uint16, mjSamplerWay),
			ts:    make([]uint8, mjSamplerWay),
		}
	}
	return p
}

func (p *mockingjay) Name() string { return "mockingjay" }

func (p *mockingjay) sig(pc mem.PC) uint16 { return uint16(mem.HashPC(pc, mjSigBits)) }

// trainRDP blends an observed reuse distance into the predictor with the
// temporal-difference update Mockingjay uses.
func (p *mockingjay) trainRDP(sig uint16, observed int16) {
	cur := p.rdp[sig]
	if cur < 0 {
		p.rdp[sig] = observed
		return
	}
	diff := observed - cur
	step := diff / 8
	if step == 0 {
		if diff > 0 {
			step = 1
		} else if diff < 0 {
			step = -1
		}
	}
	next := cur + step
	if next < 0 {
		next = 0
	}
	if next > mjInfRD {
		next = mjInfRD
	}
	p.rdp[sig] = next
}

// sample feeds sampled sets: hits measure reuse distance, replacements of
// unreused victims mark their PCs as scans.
func (p *mockingjay) sample(set int, a Access) {
	s, ok := p.sampler[set]
	if !ok {
		return
	}
	s.now++
	tag := uint16(mem.HashLine(a.Line, 16))
	sig := p.sig(a.PC)
	oldest, oldestAge := 0, -1
	for i := range s.valid {
		if s.valid[i] && s.tag[i] == tag {
			observed := int16(s.now - s.ts[i]) // uint8 wraparound distance
			p.trainRDP(s.pc[i], observed)
			s.pc[i] = sig
			s.ts[i] = s.now
			return
		}
		age := int(s.now - s.ts[i])
		if !s.valid[i] {
			age = 1 << 16 // free slot wins
		}
		if age > oldestAge {
			oldest, oldestAge = i, age
		}
	}
	if s.valid[oldest] {
		// Evicted without reuse within the sampler's horizon: scan-like.
		p.trainRDP(s.pc[oldest], mjInfRD)
	}
	s.valid[oldest] = true
	s.tag[oldest] = tag
	s.pc[oldest] = sig
	s.ts[oldest] = s.now
}

// tick advances the per-set clock, decaying every resident line's ETR once
// per granularity accesses.
func (p *mockingjay) tick(set int) {
	p.clock[set]++
	if p.clock[set] < p.granularity {
		return
	}
	p.clock[set] = 0
	etr := row(p.etr, set, p.ways)
	for w := range etr {
		if etr[w] > -mjMaxETR {
			etr[w]--
		}
	}
}

// predictETR converts the RDP prediction for pc into an initial ETR value.
func (p *mockingjay) predictETR(pc mem.PC) int16 {
	rd := p.rdp[p.sig(pc)]
	if rd < 0 {
		// Untrained PCs get a median prediction rather than scan treatment.
		return int16(p.ways)
	}
	etr := rd / int16(p.granularity)
	if etr > mjMaxETR {
		etr = mjMaxETR
	}
	return etr
}

func (p *mockingjay) Hit(set, way int, a Access) {
	p.sample(set, a)
	p.tick(set)
	p.etr[set*p.ways+way] = p.predictETR(a.PC)
}

func (p *mockingjay) Fill(set, way int, a Access) {
	p.sample(set, a)
	p.tick(set)
	p.etr[set*p.ways+way] = p.predictETR(a.PC)
}

func (p *mockingjay) Evict(set, way int) { p.etr[set*p.ways+way] = 0 }

func (p *mockingjay) Victim(set, lo int, a Access) int {
	// Bypass opportunity: if the incoming line is predicted a scan and no
	// resident line is deader, Mockingjay would bypass; since our caller
	// always installs, evict the max-|ETR| line.
	best, bestAbs := lo, int16(-1)
	etr := row(p.etr, set, p.ways)
	for w := lo; w < len(etr); w++ {
		e := etr[w]
		abs := e
		if abs < 0 {
			abs = -abs
		}
		// Prefer dead lines (negative ETR) on ties: they are already past
		// their predicted reuse.
		if abs > bestAbs || (abs == bestAbs && e < 0 && etr[best] >= 0) {
			best, bestAbs = w, abs
		}
	}
	return best
}
