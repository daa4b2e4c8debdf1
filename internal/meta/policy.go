package meta

// EntryPolicy decides replacement among the entry slots of one metadata set.
// Unlike cache-line replacement, victims are chosen among an arbitrary
// candidate subset: partial-tag aliasing (tagged stores) and the two-level
// index function (untagged stores) both constrain which slots an incoming
// entry may occupy.
//
// Streamline's TP-Mockingjay implements this interface in internal/core; the
// policies here are the baselines: entry-granularity LRU and the SRRIP that
// Triangel uses for its metadata. Of these, only TP-Mockingjay reads
// EntryAccess.PC; the store treats every policy outside this package as one
// that does.
type EntryPolicy interface {
	// Touch records a lookup hit on a slot.
	Touch(set, slot int, a EntryAccess)
	// Fill records installation of a new entry in a slot.
	Fill(set, slot int, a EntryAccess)
	// Victim picks the slot to evict among the candidate slots [lo, hi)
	// (all valid), given the incoming entry's access context. Placement
	// constraints always resolve to a contiguous slot range — a single
	// way's slots or every live slot of the set.
	Victim(set, lo, hi int, a EntryAccess) int
	// Evict records invalidation of a slot.
	Evict(set, slot int)
}

// EntryPolicyFactory builds an EntryPolicy for a store with the given
// geometry (sets metadata sets, each with slots entry slots). Policies keep
// per-slot state the way the store keeps its keys: one flat set-major array
// indexed set*slots+slot.
type EntryPolicyFactory func(sets, slots int) EntryPolicy

// pcBlind marks the policies that never read EntryAccess.PC, so a store
// handing them an entry it reinserts on a resize need not keep its PC.
type pcBlind interface{ pcBlind() }

// ---------------------------------------------------------------- LRU

// entryLRU stamps each slot with its set's clock at every touch; the valid
// slot with the lowest stamp is least recent, and 0 marks an invalid slot.
// Victims are chosen within one set, so each set keeps its own 16-bit clock,
// and a set whose clock would wrap renumbers its stamps by rank first.
type entryLRU struct {
	slots int
	stamp []uint16
	clock []uint16 // per set
}

// NewEntryLRU returns entry-granularity LRU.
func NewEntryLRU(sets, slots int) EntryPolicy {
	return &entryLRU{slots: slots, stamp: make([]uint16, sets*slots), clock: make([]uint16, sets)}
}

func (*entryLRU) pcBlind() {}

func (p *entryLRU) touch(set, slot int) {
	c := p.clock[set]
	if c == ^uint16(0) {
		c = renumber(p.stamp[set*p.slots : (set+1)*p.slots])
	}
	c++
	p.clock[set], p.stamp[set*p.slots+slot] = c, c
}

// renumber replaces the nonzero stamps of row, which are distinct, by their
// ranks 1..m in the same order, and returns m. It works in place: the r-th
// smallest of distinct positive stamps is at least r, so before round r the
// stamps still to rank are exactly those of at least r.
func renumber(row []uint16) uint16 {
	var r uint16
	for {
		least := -1
		for i, v := range row {
			if v > r && (least < 0 || v < row[least]) {
				least = i
			}
		}
		if least < 0 {
			return r
		}
		r++
		row[least] = r
	}
}

func (p *entryLRU) Touch(set, slot int, _ EntryAccess) { p.touch(set, slot) }
func (p *entryLRU) Fill(set, slot int, _ EntryAccess)  { p.touch(set, slot) }
func (p *entryLRU) Evict(set, slot int)                { p.stamp[set*p.slots+slot] = 0 }

func (p *entryLRU) Victim(set, lo, hi int, _ EntryAccess) int {
	stamps := p.stamp[set*p.slots : set*p.slots+hi]
	best, bestStamp := lo, stamps[lo]
	for s := lo + 1; s < hi; s++ {
		if stamps[s] < bestStamp {
			best, bestStamp = s, stamps[s]
		}
	}
	return best
}

// ---------------------------------------------------------------- SRRIP

type entrySRRIP struct {
	slots int
	rrpv  []uint8
}

const entryRRPVMax = 3

// NewEntrySRRIP returns entry-granularity SRRIP, Triangel's metadata
// replacement policy.
func NewEntrySRRIP(sets, slots int) EntryPolicy {
	p := &entrySRRIP{slots: slots, rrpv: make([]uint8, sets*slots)}
	for i := range p.rrpv {
		p.rrpv[i] = entryRRPVMax
	}
	return p
}

func (*entrySRRIP) pcBlind() {}

func (p *entrySRRIP) Touch(set, slot int, _ EntryAccess) { p.rrpv[set*p.slots+slot] = 0 }
func (p *entrySRRIP) Fill(set, slot int, _ EntryAccess)  { p.rrpv[set*p.slots+slot] = entryRRPVMax - 1 }
func (p *entrySRRIP) Evict(set, slot int)                { p.rrpv[set*p.slots+slot] = entryRRPVMax }

func (p *entrySRRIP) Victim(set, lo, hi int, _ EntryAccess) int {
	row := p.rrpv[set*p.slots : set*p.slots+hi]
	for {
		for s := lo; s < hi; s++ {
			if row[s] >= entryRRPVMax {
				return s
			}
		}
		for s := lo; s < hi; s++ {
			row[s]++
		}
	}
}
