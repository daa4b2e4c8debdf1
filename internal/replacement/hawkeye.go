package replacement

import "streamline/internal/mem"

// hawkeye implements the Hawkeye replacement policy (Jain & Lin, ISCA 2016):
// OPTgen reconstructs Belady-MIN decisions over sampled sets and trains a
// PC-indexed predictor; predicted-friendly lines are protected with an
// RRIP-style backbone while predicted-averse lines are evicted first.
// Triage sizes its metadata partition with Hawkeye, and Figure 13c compares
// it against TP-Mockingjay for metadata replacement.
type hawkeye struct {
	sets, ways int

	rrpv     []uint8 // 3-bit ages; rrpv==hawkeyeMaxAge marks cache-averse
	linePC   []uint16
	predict  []int8 // 3-bit saturating counters per PC signature
	sampled  map[int]*optgenSet
	interval int // sampled-set history window, in set accesses
}

const (
	hawkeyeMaxAge  = 7
	hawkeyeSigBits = 13
	hawkeyePredMax = 3
	hawkeyePredMin = -4
)

// optgenSet is the per-sampled-set OPTgen state: a sliding window of recent
// accesses and the occupancy vector that answers "would MIN have hit?".
type optgenSet struct {
	lines     []mem.Line
	pcs       []uint16
	occupancy []uint8
	head      int // logical time of the next slot
	ways      int
}

// NewHawkeye returns the Hawkeye policy.
func NewHawkeye(sets, ways int) Policy {
	p := &hawkeye{
		sets: sets, ways: ways,
		rrpv:     make([]uint8, sets*ways),
		linePC:   make([]uint16, sets*ways),
		predict:  make([]int8, 1<<hawkeyeSigBits),
		sampled:  make(map[int]*optgenSet),
		interval: 8 * ways,
	}
	for i := range p.rrpv {
		p.rrpv[i] = hawkeyeMaxAge
	}
	// Sample every 16th set (or every set for tiny structures).
	stride := 16
	if sets < 64 {
		stride = 1
	}
	for s := 0; s < sets; s += stride {
		p.sampled[s] = &optgenSet{
			lines:     make([]mem.Line, p.interval),
			pcs:       make([]uint16, p.interval),
			occupancy: make([]uint8, p.interval),
			ways:      ways,
		}
	}
	return p
}

func (p *hawkeye) Name() string { return "hawkeye" }

func (p *hawkeye) sig(pc mem.PC) uint16 { return uint16(mem.HashPC(pc, hawkeyeSigBits)) }

// observe feeds an access to OPTgen for sampled sets, returning the trained
// signature and whether OPT would have hit (+1) or missed (-1); 0 when the
// set is unsampled or the line is new to the window.
func (p *hawkeye) observe(set int, a Access) {
	og, ok := p.sampled[set]
	if !ok {
		return
	}
	sig := p.sig(a.PC)
	// Search the window (newest to oldest) for the previous access.
	n := len(og.lines)
	found := -1
	for i := 1; i <= n; i++ {
		idx := (og.head - i + n) % n
		if og.lines[idx] == a.Line {
			found = idx
			break
		}
	}
	if found >= 0 {
		// Would MIN have kept the line across [found, head)? Yes iff the
		// occupancy in every quantum of the interval is below associativity.
		fits := true
		for i := found; i != og.head; i = (i + 1) % n {
			if og.occupancy[i] >= uint8(og.ways) {
				fits = false
				break
			}
		}
		trained := og.pcs[found]
		if fits {
			for i := found; i != og.head; i = (i + 1) % n {
				og.occupancy[i]++
			}
			if p.predict[trained] < hawkeyePredMax {
				p.predict[trained]++
			}
		} else if p.predict[trained] > hawkeyePredMin {
			p.predict[trained]--
		}
	}
	og.lines[og.head] = a.Line
	og.pcs[og.head] = sig
	og.occupancy[og.head] = 0
	og.head = (og.head + 1) % n
}

func (p *hawkeye) friendly(pc mem.PC) bool { return p.predict[p.sig(pc)] >= 0 }

func (p *hawkeye) Hit(set, way int, a Access) {
	p.observe(set, a)
	i := set*p.ways + way
	p.linePC[i] = p.sig(a.PC)
	if p.friendly(a.PC) {
		p.rrpv[i] = 0
	} else {
		p.rrpv[i] = hawkeyeMaxAge
	}
}

func (p *hawkeye) Fill(set, way int, a Access) {
	p.observe(set, a)
	p.linePC[set*p.ways+way] = p.sig(a.PC)
	rrpv := row(p.rrpv, set, p.ways)
	if p.friendly(a.PC) {
		// Age the other friendly lines so older ones become candidates.
		for w, v := range rrpv {
			if w != way && v < hawkeyeMaxAge-1 {
				rrpv[w] = v + 1
			}
		}
		rrpv[way] = 0
	} else {
		rrpv[way] = hawkeyeMaxAge
	}
}

func (p *hawkeye) Evict(set, way int) {
	// Evicting a line inserted as friendly means the predictor overrated
	// its PC; detrain so the PC loses protection.
	i := set*p.ways + way
	if p.rrpv[i] < hawkeyeMaxAge {
		s := p.linePC[i]
		if p.predict[s] > hawkeyePredMin {
			p.predict[s]--
		}
	}
	p.rrpv[i] = hawkeyeMaxAge
}

func (p *hawkeye) Victim(set, lo int, _ Access) int {
	// Prefer cache-averse lines, then the oldest friendly line.
	best, bestAge := lo, -1
	rrpv := row(p.rrpv, set, p.ways)
	for w := lo; w < len(rrpv); w++ {
		v := rrpv[w]
		if v == hawkeyeMaxAge {
			return w
		}
		if int(v) > bestAge {
			best, bestAge = w, int(v)
		}
	}
	return best
}
