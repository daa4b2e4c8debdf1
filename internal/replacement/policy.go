// Package replacement implements cache replacement. LRU is the policy every
// data cache runs (internal/cache calls it directly). SRRIP, BRRIP, DRRIP,
// SHiP, Hawkeye and Mockingjay sit behind Policy and Factories: no simulated
// cache uses them; they remain for the benchmark's replacement probes and
// the victim digests that pin them. The Belady MIN / TP-MIN offline oracles
// are what the paper uses to reason about temporal-prefetch metadata
// (Section IV-D1, Figure 6, Figure 13c).
package replacement

import (
	"fmt"
	"math/bits"
	"math/rand"

	"streamline/internal/mem"
)

// Access carries the request context policies may condition on.
type Access struct {
	PC   mem.PC
	Line mem.Line
}

// Policy decides victims within a set-associative structure. The caller owns
// validity; Victim is only consulted when every way in the set is valid.
type Policy interface {
	// Hit is invoked when an access hits in (set, way).
	Hit(set, way int, a Access)
	// Fill is invoked when a new line is installed in (set, way).
	Fill(set, way int, a Access)
	// Victim selects the way to evict among ways [lo, ways) of a full
	// set; lo carves out ways reserved for another use (the LLC's
	// metadata partition reserves the low-indexed ways of a set).
	Victim(set, lo int, a Access) int
	// Evict is invoked when (set, way) is invalidated or replaced.
	Evict(set, way int)
}

// Factory constructs a policy for a structure with the given geometry.
type Factory func(sets, ways int) Policy

// row returns set's ways of a per-way state array. Every policy keeps such
// state flat and set-major, one array per field indexed set*ways+way like the
// cache's own tag array, so a victim scan reads one contiguous run and a
// policy is one allocation per field, not one per set.
func row[T any](a []T, set, ways int) []T { return a[set*ways : (set+1)*ways] }

// Factories maps policy names to constructors, for configuration by name.
var Factories = map[string]Factory{
	"lru":        func(sets, ways int) Policy { return lruPolicy{NewLRU(sets, ways)} },
	"srrip":      NewSRRIP,
	"brrip":      NewBRRIP,
	"drrip":      NewDRRIP,
	"ship":       NewSHiP,
	"hawkeye":    NewHawkeye,
	"mockingjay": NewMockingjay,
}

// ---------------------------------------------------------------- LRU

// LRU is exact least-recently-used in constant time: each set packs its
// recency order into one word instead of keeping a timestamp per way.
type LRU struct {
	ways int
	sets []lruSet
}

// lruSet is one set's recency state. order holds the way numbers as nibbles,
// most recently used in the low nibble; the set's own ways permute within the
// low `ways` nibbles and the nibbles above them never move. cold marks ways
// evicted (or never filled) since their last touch: they rank below every
// touched way, lowest index first, wherever order still holds them.
type lruSet struct {
	order uint64
	cold  uint16
}

// NewLRU returns a least-recently-used policy. It panics above 16 ways, the
// most a set's packed order holds.
func NewLRU(sets, ways int) *LRU {
	if ways > 16 {
		panic(fmt.Sprintf("replacement: lru supports at most 16 ways, got %d", ways))
	}
	p := &LRU{ways: ways, sets: make([]lruSet, sets)}
	for i := range p.sets {
		p.sets[i] = lruSet{order: 0xfedc_ba98_7654_3210, cold: 1<<ways - 1}
	}
	return p
}

// Touch makes way the set's most recent, on a hit or a fill: it finds the
// way's nibble and rotates it to the front, moving the more recent ways up
// one place.
func (p *LRU) Touch(set, way int) {
	s := &p.sets[set]
	s.cold &^= 1 << way
	w := uint64(way)
	if s.order&15 == w {
		return
	}
	// The nibbles of x are zero exactly where order holds way; the lowest
	// marker bit of the zero-nibble test is always a true match.
	const ones, highs = 0x1111_1111_1111_1111, 0x8888_8888_8888_8888
	x := s.order ^ w*ones
	at := uint(bits.TrailingZeros64((x-ones)&^x&highs)) - 3
	s.order = s.order&^(1<<(at+4)-1) | s.order&(1<<at-1)<<4 | w
}

// Evict marks way cold when it is invalidated or replaced.
func (p *LRU) Evict(set, way int) { p.sets[set].cold |= 1 << way }

// Victim selects the way to evict among ways [lo, ways) of set: the lowest
// cold way, else the least recently touched.
func (p *LRU) Victim(set, lo int) int {
	s := p.sets[set]
	if cold := s.cold >> lo << lo; cold != 0 {
		return bits.TrailingZeros16(cold)
	}
	for i := p.ways - 1; ; i-- {
		if w := int(s.order >> (4 * i) & 15); w >= lo {
			return w
		}
	}
}

// lruPolicy adapts LRU to Policy, for configuration by name.
type lruPolicy struct{ *LRU }

func (p lruPolicy) Hit(set, way int, _ Access)       { p.Touch(set, way) }
func (p lruPolicy) Fill(set, way int, _ Access)      { p.Touch(set, way) }
func (p lruPolicy) Victim(set, lo int, _ Access) int { return p.LRU.Victim(set, lo) }

// ---------------------------------------------------------------- SRRIP

const (
	rrpvBits    = 2
	rrpvMax     = 1<<rrpvBits - 1 // 3: eviction candidate
	rrpvLong    = rrpvMax - 1     // 2: SRRIP insertion
	rrpvDistant = rrpvMax         // 3: BRRIP common insertion
)

type srrip struct {
	ways int
	rrpv []uint8
	// insertRRPV returns the insertion prediction for this fill; SRRIP and
	// BRRIP differ only here, and DRRIP switches between them.
	insertRRPV func(set int) uint8
}

// NewSRRIP returns Static RRIP with 2-bit re-reference predictions, the
// policy Triangel uses for its metadata (Jaleel et al., ISCA 2010).
func NewSRRIP(sets, ways int) Policy {
	p := newRRIPBase(sets, ways)
	p.insertRRPV = func(int) uint8 { return rrpvLong }
	return p
}

// NewBRRIP returns Bimodal RRIP: inserts at distant re-reference except for
// a 1/32 chance of a long insertion.
func NewBRRIP(sets, ways int) Policy {
	p := newRRIPBase(sets, ways)
	rng := rand.New(rand.NewSource(int64(sets)*31 + int64(ways)))
	p.insertRRPV = func(int) uint8 {
		if rng.Intn(32) == 0 {
			return rrpvLong
		}
		return rrpvDistant
	}
	return p
}

func newRRIPBase(sets, ways int) *srrip {
	p := &srrip{ways: ways, rrpv: make([]uint8, sets*ways)}
	for i := range p.rrpv {
		p.rrpv[i] = rrpvMax
	}
	return p
}

func (p *srrip) Hit(set, way int, _ Access) { p.rrpv[set*p.ways+way] = 0 }

func (p *srrip) Fill(set, way int, _ Access) { p.rrpv[set*p.ways+way] = p.insertRRPV(set) }

func (p *srrip) Evict(set, way int) { p.rrpv[set*p.ways+way] = rrpvMax }

func (p *srrip) Victim(set, lo int, _ Access) int {
	rrpv := row(p.rrpv, set, p.ways)
	for {
		for w := lo; w < len(rrpv); w++ {
			if rrpv[w] >= rrpvMax {
				return w
			}
		}
		for w := lo; w < len(rrpv); w++ {
			rrpv[w]++
		}
	}
}

// ---------------------------------------------------------------- DRRIP

type drrip struct {
	s, b       *srrip
	psel       int
	pselMax    int
	leaderMask int
}

// NewDRRIP returns Dynamic RRIP: set dueling between SRRIP and BRRIP leader
// sets, with follower sets using the currently winning policy.
func NewDRRIP(sets, ways int) Policy {
	return &drrip{
		s:          NewSRRIP(sets, ways).(*srrip),
		b:          NewBRRIP(sets, ways).(*srrip),
		pselMax:    1023,
		psel:       512,
		leaderMask: 63,
	}
}

// leader returns +1 for SRRIP leader sets, -1 for BRRIP leaders, 0 otherwise.
func (p *drrip) leader(set int) int {
	switch set & p.leaderMask {
	case 0:
		return 1
	case 1:
		return -1
	}
	return 0
}

func (p *drrip) useBRRIP(set int) bool {
	switch p.leader(set) {
	case 1:
		return false
	case -1:
		return true
	}
	return p.psel < p.pselMax/2
}

func (p *drrip) Hit(set, way int, a Access) {
	p.s.Hit(set, way, a)
	p.b.Hit(set, way, a)
}

func (p *drrip) Fill(set, way int, a Access) {
	// A fill implies the leader's policy missed; misses in a leader set
	// vote against that leader.
	switch p.leader(set) {
	case 1:
		if p.psel > 0 {
			p.psel--
		}
	case -1:
		if p.psel < p.pselMax {
			p.psel++
		}
	}
	i := set*p.s.ways + way // s and b share one geometry
	if p.useBRRIP(set) {
		p.b.Fill(set, way, a)
		p.s.rrpv[i] = p.b.rrpv[i]
	} else {
		p.s.Fill(set, way, a)
		p.b.rrpv[i] = p.s.rrpv[i]
	}
}

func (p *drrip) Evict(set, way int) {
	p.s.Evict(set, way)
	p.b.Evict(set, way)
}

func (p *drrip) Victim(set, lo int, a Access) int {
	if p.useBRRIP(set) {
		v := p.b.Victim(set, lo, a)
		copy(row(p.s.rrpv, set, p.s.ways), row(p.b.rrpv, set, p.b.ways))
		return v
	}
	v := p.s.Victim(set, lo, a)
	copy(row(p.b.rrpv, set, p.b.ways), row(p.s.rrpv, set, p.s.ways))
	return v
}

// ---------------------------------------------------------------- SHiP

// ship implements SHiP-PC: a signature history counter table predicts, per
// load PC, whether filled lines will be reused, steering RRIP insertion.
type ship struct {
	*srrip
	shct    []uint8 // 2-bit saturating counters per PC signature
	sig     []uint16
	reused  []bool
	sigBits uint
}

// NewSHiP returns the SHiP-PC insertion policy over an SRRIP backbone.
func NewSHiP(sets, ways int) Policy {
	p := &ship{
		srrip:   newRRIPBase(sets, ways),
		sigBits: 12,
		sig:     make([]uint16, sets*ways),
		reused:  make([]bool, sets*ways),
	}
	p.shct = make([]uint8, 1<<p.sigBits)
	for i := range p.shct {
		p.shct[i] = 1
	}
	p.insertRRPV = func(int) uint8 { return rrpvDistant }
	return p
}

func (p *ship) signature(a Access) uint16 {
	return uint16(mem.HashPC(a.PC, p.sigBits))
}

func (p *ship) Hit(set, way int, a Access) {
	p.srrip.Hit(set, way, a)
	if i := set*p.ways + way; !p.reused[i] {
		p.reused[i] = true
		s := p.sig[i]
		if p.shct[s] < 3 {
			p.shct[s]++
		}
	}
}

func (p *ship) Fill(set, way int, a Access) {
	s, i := p.signature(a), set*p.ways+way
	p.sig[i] = s
	p.reused[i] = false
	if p.shct[s] == 0 {
		p.rrpv[i] = rrpvDistant
	} else {
		p.rrpv[i] = rrpvLong
	}
}

func (p *ship) Evict(set, way int) {
	if i := set*p.ways + way; !p.reused[i] {
		s := p.sig[i]
		if p.shct[s] > 0 {
			p.shct[s]--
		}
	}
	p.srrip.Evict(set, way)
}
