package meta

import (
	"fmt"
	"slices"

	"streamline/internal/mem"
	"streamline/internal/telemetry"
)

// EntryAccess is the context handed to entry policies on every store
// operation: the correlation being accessed and the PC that produced it.
type EntryAccess struct {
	PC          mem.PC
	Trigger     mem.Line
	FirstTarget mem.Line
}

// StoreConfig describes a metadata store's format, partitioning scheme, and
// host geometry. The Tagged/Filtered/SetPartitioned triple spans the eight
// schemes of Table I.
type StoreConfig struct {
	// Format selects pairwise or stream entries.
	Format Format
	// StreamLength is the targets per entry for Stream format (ignored
	// for pairwise formats, which always hold one).
	StreamLength int

	// Tagged stores locate entries with a tag check across every metadata
	// way of the set (partial trigger tags spill into the LLC tag store);
	// untagged stores select the way with a second-level hash, Triangel's
	// two-level index function.
	Tagged bool
	// Filtered stores use the fixed index function of the maximum
	// partition size and discard entries that map outside the current
	// partition; unfiltered (rearranged) stores re-index on every resize
	// and shuffle misplaced entries, generating LLC traffic.
	Filtered bool
	// SetPartitioned stores allocate whole LLC sets (MetaWaysPerSet ways
	// in every 2^k-th set); way-partitioned stores allocate k ways of
	// every set.
	SetPartitioned bool
	// Hybrid (set-partitioned only) shrinks by reducing both allocated
	// sets and ways per set, halving the filtering rate at quarter sizes
	// (Section V-D6).
	Hybrid bool
	// Skewed (filtered set-partitioned only) biases the trigger-to-set
	// mapping toward sets that remain allocated at small partition sizes,
	// reducing filtering (Section V-D6).
	Skewed bool

	// MetaWaysPerSet is the ways each allocated set dedicates to metadata
	// (8 for Streamline; the resize ceiling for way-partitioned stores).
	MetaWaysPerSet int
	// PartialTagBits is the width of the trigger tag consulted for way
	// aliasing: the 6 partial-tag bits Streamline spills into the LLC tag
	// store plus the remaining trigger-hash bits kept inline with the
	// entry. Entries matching on all of it must share a way; Section V-D5
	// reports 3.8%% of correlations alias at this width.
	PartialTagBits int
	// MaxBytes is the maximum partition size, fixing the filtered index
	// function.
	MaxBytes int
	// Policy builds the entry replacement policy; nil defaults to LRU.
	Policy EntryPolicyFactory
}

// triggerHashBits is the width of the hashed trigger match (10 in
// Triage/Triangel/Streamline); aliases cause mispredictions.
const triggerHashBits = 10

// noKey and noPartial mark an empty slot in Store.keys and Store.partial. A
// trigger hash is triggerHashBits wide and a partial tag at most 15 (NewStore
// refuses wider ones), so neither all-ones value is a hash of any trigger.
const (
	noKey     = ^uint16(0)
	noPartial = ^uint16(0)
)

// The largest trigger hash, 1<<triggerHashBits - 1, must stay below noKey:
// this constant overflows uint, and the package fails to compile, otherwise.
const _ = uint(noKey) - 1<<triggerHashBits

// slot is the cold half of an entry slot, read only after its key or its
// partial tag matched. It carries the entry's first target, so a pairwise hit
// reads the key row and this one record.
type slot struct {
	trigger mem.Line
	first   mem.Line // target 1
}

// A slot's byte in Store.info holds its target count, 1..Store.k, in the low
// seven bits and its confidence bit (targets confirmed by a repeat store) in
// confBit; 0 marks an empty slot.
const (
	confBit   = 0x80
	maxTarget = confBit - 1
)

// Store is a partitionable on-chip metadata store hosted by the LLC.
type Store struct {
	cfg    StoreConfig
	bridge Bridge

	llcSets, llcWays int
	epb              int // entries per 64B block
	metaSets         int // logical metadata sets
	maxWays          int // ways per set at maximum size

	// Current partition state.
	curBytes   int
	curWays    int // ways in use per allocated set
	curSpacing int // set-partitioned: every curSpacing-th logical set is live
	maxSpacing int

	// Slot storage is flat and set-major: slot way*epb+idx of logical set
	// s is index s*stride+way*epb+idx of every array below. Scans read only
	// the dense match arrays — keys (hashed trigger tag, triggerHashBits
	// wide) for Lookup and Insert, partial (the partial tag kept in the LLC
	// tag array, allocated only for tagged stores) for aliasing — and touch
	// slots, info and targets on a match. pcs holds the PC that last stored
	// each entry, which only a resize's reinsertion reads.
	stride  int // slots per logical set
	k       int // targets per slot
	keys    []uint16
	partial []uint16 // nil unless cfg.Tagged
	slots   []slot
	info    []uint8    // target count and confidence bit, see confBit
	targets []mem.Line // targets 2..n of slot i, at stride k-1 (empty when k = 1)
	pcs     []mem.PC   // nil unless the store rearranges and its policy reads PCs
	pol     EntryPolicy

	// tel receives resize events; nil (the default) disables them. lastNow
	// tracks the most recent Lookup/Insert cycle so Resize — which has no
	// cycle argument of its own — can timestamp its event.
	tel     *telemetry.Emitter
	lastNow uint64

	Stats Stats
}

// SetTelemetry attaches a telemetry emitter for discrete store events
// (partition resizes). A nil emitter (telemetry disabled) is fine.
func (s *Store) SetTelemetry(tel *telemetry.Emitter) { s.tel = tel }

// NewStore builds a store at its maximum partition size.
func NewStore(cfg StoreConfig, bridge Bridge) *Store {
	llcSets, llcWays := bridge.Geometry()
	if cfg.MetaWaysPerSet <= 0 || cfg.MetaWaysPerSet > llcWays {
		cfg.MetaWaysPerSet = llcWays / 2
	}
	if cfg.StreamLength <= 0 {
		cfg.StreamLength = 1
	}
	if cfg.PartialTagBits <= 0 {
		cfg.PartialTagBits = 10
	}
	if cfg.Policy == nil {
		cfg.Policy = NewEntryLRU
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = llcSets * cfg.MetaWaysPerSet * mem.LineSize
	}
	if cfg.PartialTagBits > 15 {
		panic(fmt.Sprintf("meta: a %d-bit partial tag collides with the empty-slot tag", cfg.PartialTagBits))
	}
	if cfg.Format == Stream && cfg.StreamLength > maxTarget {
		panic(fmt.Sprintf("meta: a %d-target stream overflows a slot's target count", cfg.StreamLength))
	}

	s := &Store{
		cfg:     cfg,
		bridge:  bridge,
		llcSets: llcSets,
		llcWays: llcWays,
		epb:     EntriesPerBlock(cfg.Format, cfg.StreamLength),
		k:       1,
	}
	if cfg.Format == Stream {
		s.k = cfg.StreamLength
	}
	maxBlocks := cfg.MaxBytes / mem.LineSize
	if cfg.SetPartitioned {
		s.maxWays = cfg.MetaWaysPerSet
		s.metaSets = maxBlocks / s.maxWays
		if s.metaSets > llcSets {
			s.metaSets = llcSets
		}
		if s.metaSets < 1 {
			s.metaSets = 1
		}
		s.maxSpacing = llcSets / s.metaSets
	} else {
		s.metaSets = llcSets
		s.maxWays = maxBlocks / llcSets
		if s.maxWays > cfg.MetaWaysPerSet {
			s.maxWays = cfg.MetaWaysPerSet
		}
		if s.maxWays < 1 {
			s.maxWays = 1
		}
		s.maxSpacing = 1
	}
	s.stride = s.maxWays * s.epb
	n := s.metaSets * s.stride
	s.keys, s.slots, s.info = make([]uint16, n), make([]slot, n), make([]uint8, n)
	s.targets = make([]mem.Line, n*(s.k-1))
	for i := range s.keys {
		s.keys[i] = noKey
	}
	if cfg.Tagged {
		s.partial = make([]uint16, n)
		for i := range s.partial {
			s.partial[i] = noPartial
		}
	}
	s.pol = cfg.Policy(s.metaSets, s.stride)
	// Only a rearranging resize reinserts an entry, and only a policy that
	// reads EntryAccess.PC can tell which PC it is handed there.
	if _, blind := s.pol.(pcBlind); !cfg.Filtered && !blind {
		s.pcs = make([]mem.PC, n)
	}
	s.applySize(s.maxBytes(), true)
	return s
}

func (s *Store) maxBytes() int {
	if s.cfg.SetPartitioned {
		return s.metaSets * s.maxWays * mem.LineSize
	}
	return s.llcSets * s.maxWays * mem.LineSize
}

// Config returns the store's configuration.
func (s *Store) Config() StoreConfig { return s.cfg }

// SizeBytes returns the current partition size.
func (s *Store) SizeBytes() int { return s.curBytes }

// CapacityCorrelations returns how many correlations the current partition
// can hold.
func (s *Store) CapacityCorrelations() int {
	blocks := s.curBytes / mem.LineSize
	return blocks * CorrelationsPerBlock(s.cfg.Format, s.cfg.StreamLength)
}

// StreamLength returns the configured targets per entry.
func (s *Store) StreamLength() int { return s.cfg.StreamLength }

// The store derives its several index functions from disjoint bit ranges
// of one 64-bit line hash, mem.HashLine64 of the trigger, which each store
// operation computes once and hands to the functions below: bits [0,22)
// index the set, [22,32) form the hashed trigger tag, [32,38+) the partial
// tag, [48,58) the second-level way index, and [58,60) drive skewed
// indexing.
func keyOf(h uint64) uint16 {
	return uint16(h>>22) & (1<<triggerHashBits - 1)
}

func (s *Store) partialTag(h uint64) uint16 {
	// A different bit slice than the trigger hash, as the partial tag
	// lives in the LLC tag store.
	return uint16(h>>32) & (1<<uint(s.cfg.PartialTagBits) - 1)
}

// logicalSet maps a trigger hash to its logical metadata set under the
// FIXED maximum-size index function.
func (s *Store) logicalSet(h uint64) int {
	set := int((h & (1<<22 - 1)) % uint64(s.metaSets))
	if s.cfg.Skewed {
		// Bias toward logical sets that survive shrinking: clear 0, 1 or 2
		// low set-index bits with equal probability, overweighting sets
		// divisible by larger powers of two.
		k := (h >> 58) % 3
		set &^= int(1<<k) - 1
	}
	return set
}

// LogicalSetOf exposes the fixed trigger-to-set index function for
// components that sample trigger locality (the dynamic partitioners).
func (s *Store) LogicalSetOf(t mem.Line) int { return s.logicalSet(mem.HashLine64(t)) }

// setLive reports whether a logical set is inside the current partition.
func (s *Store) setLive(logical int) bool {
	if !s.cfg.SetPartitioned {
		return s.curWays > 0
	}
	if s.curWays == 0 {
		return false
	}
	step := s.curSpacing / s.maxSpacing
	if step < 1 {
		step = 1
	}
	return logical%step == 0
}

// currentSet maps a trigger hash to the logical set it occupies under the
// CURRENT index function (rearranged stores re-index on resize; filtered
// stores always use logicalSet and may filter).
func (s *Store) currentSet(h uint64) (logical int, live bool) {
	logical = s.logicalSet(h)
	if s.cfg.Filtered {
		return logical, s.setLive(logical)
	}
	if !s.cfg.SetPartitioned {
		return logical, s.curWays > 0
	}
	// Rearranged set-partitioning: compress the index space onto the live
	// sets so nothing is filtered — at the price of re-indexing on resize.
	step := s.curSpacing / s.maxSpacing
	if step < 1 {
		step = 1
	}
	liveSets := s.metaSets / step
	if liveSets < 1 {
		return logical, false
	}
	return (logical % liveSets) * step, s.curWays > 0
}

// wayOf returns the way an entry with trigger hash h must occupy for
// untagged stores under the current (rearranged) or maximum (filtered)
// way-index function, and whether the trigger is filtered out (filtered
// way-partitioning).
func (s *Store) wayOf(h uint64) (way int, live bool) {
	w := int(h >> 48 & (1<<10 - 1))
	if s.cfg.Filtered {
		way = w % s.maxWays
		return way, way < s.curWays
	}
	if s.curWays == 0 {
		return 0, false
	}
	return w % s.curWays, true
}

// candidates returns the contiguous slot range [lo, hi) the entry of
// trigger t, hashing to h, may occupy within its logical set, honoring the
// two-level index (untagged) or partial-tag aliasing (tagged). Every
// placement constraint resolves to a contiguous range — a whole way's slots
// or every live slot — so no index list is materialized. It also reports
// whether aliasing constrained a tagged placement.
func (s *Store) candidates(set int, t mem.Line, h uint64) (lo, hi int, aliased bool, live bool) {
	if !s.cfg.Tagged {
		way, ok := s.wayOf(h)
		if !ok || way >= s.curWays {
			return 0, 0, false, false
		}
		lo = way * s.epb
		return lo, lo + s.epb, false, true
	}
	// Tagged: any live way, but an existing entry with the same partial
	// tag pins the incoming entry to its way.
	pt, base, hi := s.partialTag(h), set*s.stride, s.curWays*s.epb
	for idx, p := range s.partial[base : base+hi] {
		if p == pt && s.slots[base+idx].trigger != t {
			lo = idx - idx%s.epb
			return lo, lo + s.epb, true, true
		}
	}
	return 0, hi, false, true
}

// WouldFilter reports whether an entry with the given trigger would be
// discarded by filtered indexing at the current partition size. Streamline's
// training unit uses this to realign streams before inserting.
func (s *Store) WouldFilter(t mem.Line) bool {
	if !s.cfg.Filtered {
		return false
	}
	h := mem.HashLine64(t)
	if !s.setLive(s.logicalSet(h)) {
		return true
	}
	if !s.cfg.Tagged && !s.cfg.SetPartitioned {
		_, ok := s.wayOf(h)
		return !ok
	}
	return false
}

// find scans slots [lo, hi) of a logical set for key and returns the flat
// index of the first match, -1 when there is none.
func (s *Store) find(set, lo, hi int, key uint16) int {
	base := set * s.stride
	for i, k := range s.keys[base+lo : base+hi] {
		if k == key {
			return base + lo + i
		}
	}
	return -1
}

// findOrFree scans flat slots [lo, hi) once for key and returns the first
// slot holding it and the first empty slot, each -1 when there is none.
func (s *Store) findOrFree(lo, hi int, key uint16) (match, free int) {
	free = -1
	for i, k := range s.keys[lo:hi] {
		if k == key {
			return lo + i, free
		}
		if k == noKey && free < 0 {
			free = lo + i
		}
	}
	return -1, free
}

// count returns the number of targets the slot at flat index i holds.
func (s *Store) count(i int) int { return int(s.info[i] &^ confBit) }

// rest returns targets 2..n of the slot at flat index i.
func (s *Store) rest(i int) []mem.Line {
	j := i * (s.k - 1)
	return s.targets[j : j+s.count(i)-1]
}

// targetsOf returns a fresh copy of the targets held by the slot at flat
// index i.
func (s *Store) targetsOf(i int) []mem.Line {
	return Hit{s, i}.AppendTargets(make([]mem.Line, 0, s.count(i)))
}

// Hit is a view of the slot a Lookup matched: it reads the entry in place
// instead of copying it out. It stays valid until the store's next Insert or
// Resize, either of which may overwrite or move the slot; a Lookup changes
// only replacement-policy state and leaves earlier hits valid.
type Hit struct {
	s *Store
	i int // flat slot index
}

// Trigger returns the trigger the entry was stored under. Lookups match a
// hash of the trigger, so an aliasing entry's trigger differs from the line
// looked up.
func (h Hit) Trigger() mem.Line { return h.s.slots[h.i].trigger }

// First returns the entry's first target.
func (h Hit) First() mem.Line { return h.s.slots[h.i].first }

// Conf returns the entry's confidence bit (see Entry.Conf).
func (h Hit) Conf() bool { return h.s.info[h.i]&confBit != 0 }

// AppendTargets appends the entry's targets to buf, which the caller owns,
// and returns the extended slice.
func (h Hit) AppendTargets(buf []mem.Line) []mem.Line {
	return append(append(buf, h.s.slots[h.i].first), h.s.rest(h.i)...)
}

// Lookup searches the store for the trigger's entry at cycle now, charging
// one LLC metadata read unless filtered indexing proves statically that the
// trigger cannot be present. It returns a view of the matched entry, whether
// it was found, and the lookup latency.
func (s *Store) Lookup(now uint64, pc mem.PC, t mem.Line) (Hit, bool, uint64) {
	s.Stats.Lookups++
	s.lastNow = now
	h := mem.HashLine64(t)
	set, live := s.currentSet(h)
	if !live {
		s.Stats.FilteredLookups++
		return Hit{}, false, 0
	}
	lo, hi, _, ok := s.candidates(set, t, h)
	if !ok {
		s.Stats.FilteredLookups++
		return Hit{}, false, 0
	}
	lat := s.bridge.MetaAccess(now, mem.MetaRead)
	s.Stats.Reads++
	if i := s.find(set, lo, hi, keyOf(h)); i >= 0 {
		s.Stats.TriggerHits++
		s.pol.Touch(set, i-set*s.stride, EntryAccess{PC: pc, Trigger: t, FirstTarget: s.slots[i].first})
		return Hit{s, i}, true, lat
	}
	return Hit{}, false, lat
}

// Insert writes an entry at cycle now, charging one LLC metadata write
// unless the entry is filtered. It returns the write latency and the
// entry's resulting confidence bit (true when this store confirmed an
// identical previous entry).
func (s *Store) Insert(now uint64, pc mem.PC, e Entry) (uint64, bool) {
	if !e.Valid() {
		return 0, false
	}
	s.lastNow = now
	placed, same := s.place(pc, e)
	if !placed {
		return 0, false
	}
	lat := s.bridge.MetaAccess(now, mem.MetaWrite)
	s.Stats.Writes++
	return lat, same
}

// place writes a valid entry into the store without charging the bridge: it
// updates the trigger's entry in place, fills a free slot or evicts a victim.
// It reports whether the entry was stored (false when filtered) and whether
// an in-place update confirmed identical targets.
func (s *Store) place(pc mem.PC, e Entry) (placed, same bool) {
	h := mem.HashLine64(e.Trigger)
	set, live := s.currentSet(h)
	if !live {
		s.Stats.FilteredInserts++
		return false, false
	}
	lo, hi, aliased, ok := s.candidates(set, e.Trigger, h)
	if !ok {
		s.Stats.FilteredInserts++
		return false, false
	}
	if aliased {
		s.Stats.AliasedInserts++
	}
	acc := EntryAccess{PC: pc, Trigger: e.Trigger, FirstTarget: e.Targets[0]}
	base := set * s.stride

	// In-place update of an existing entry for this trigger. The
	// confidence bit confirms on identical targets and clears otherwise.
	i, free := s.findOrFree(base+lo, base+hi, keyOf(h))
	if i >= 0 {
		same := s.slots[i].first == e.Targets[0] && slices.Equal(s.rest(i), e.Targets[1:])
		s.storeInto(i, h, e, pc)
		if same {
			s.info[i] |= confBit
		}
		s.pol.Touch(set, i-base, acc)
		s.Stats.Updates++
		return true, same
	}
	// Free slot, else victim.
	if i = free; i < 0 {
		i = base + s.pol.Victim(set, lo, hi, acc)
		s.pol.Evict(set, i-base)
		s.Stats.Evictions++
	}
	s.storeInto(i, h, e, pc)
	s.pol.Fill(set, i-base, acc)
	s.Stats.Inserts++
	return true, false
}

// storeInto writes e, whose trigger hashes to h, into the slot at flat
// index i, truncating its targets to the format's k and clearing the
// confidence bit.
func (s *Store) storeInto(i int, h uint64, e Entry, pc mem.PC) {
	j := i * (s.k - 1)
	n := 1 + copy(s.targets[j:j+s.k-1], e.Targets[1:])
	s.keys[i], s.info[i] = keyOf(h), uint8(n)
	if s.partial != nil {
		s.partial[i] = s.partialTag(h)
	}
	s.slots[i] = slot{trigger: e.Trigger, first: e.Targets[0]}
	if s.pcs != nil {
		s.pcs[i] = pc
	}
}

// clear empties the slot at flat index i.
func (s *Store) clear(i int) {
	s.keys[i], s.info[i], s.slots[i] = noKey, 0, slot{}
	if s.partial != nil {
		s.partial[i] = noPartial
	}
}

// Resize changes the partition to newBytes (rounded down to the scheme's
// granularity), rearranging or dropping entries per the configuration and
// updating the host LLC's way reservations. It returns the number of blocks
// of shuffle traffic generated (already recorded in Stats).
func (s *Store) Resize(newBytes int) uint64 {
	s.Stats.Resizes++
	old := s.curBytes
	moved := s.applySize(newBytes, false)
	if s.tel.Enabled(telemetry.Info) {
		s.tel.Eventf(s.lastNow, telemetry.Info, "resize",
			"partition %dB -> %dB (%d blocks moved)", old, s.curBytes, moved)
	}
	return moved
}

// applySize computes the new geometry and migrates contents. initial
// suppresses rearrangement accounting for the first call from NewStore.
func (s *Store) applySize(newBytes int, initial bool) uint64 {
	maxB := s.maxBytes()
	if newBytes > maxB {
		newBytes = maxB
	}
	if newBytes < 0 {
		newBytes = 0
	}
	oldWays, oldSpacing := s.curWays, s.curSpacing

	blocks := newBytes / mem.LineSize
	if s.cfg.SetPartitioned {
		s.curWays = s.maxWays
		spacingFactor := 1
		if blocks > 0 {
			liveSets := blocks / s.maxWays
			if liveSets < 1 {
				liveSets = 1
			}
			if liveSets > s.metaSets {
				liveSets = s.metaSets
			}
			spacingFactor = s.metaSets / liveSets
			if s.cfg.Hybrid && spacingFactor > 1 {
				// Split the shrink factor between sets and ways as evenly
				// as possible: a quarter-size store halves both.
				wayFactor := 1
				for spacingFactor > wayFactor*2 && s.curWays > 1 {
					spacingFactor /= 2
					wayFactor *= 2
					s.curWays /= 2
				}
			}
		} else {
			s.curWays = 0
		}
		s.curSpacing = s.maxSpacing * spacingFactor
	} else {
		s.curWays = blocks / s.llcSets
		if s.curWays > s.maxWays {
			s.curWays = s.maxWays
		}
		s.curSpacing = 1
	}
	s.curBytes = s.currentBytes()

	var traffic uint64
	if !initial && (s.curWays != oldWays || s.curSpacing != oldSpacing) {
		traffic = s.migrate(oldWays, oldSpacing)
	}
	s.updateReservations()
	return traffic
}

func (s *Store) currentBytes() int {
	if s.cfg.SetPartitioned {
		step := s.curSpacing / s.maxSpacing
		if step < 1 {
			step = 1
		}
		if s.curWays == 0 {
			return 0
		}
		return s.metaSets / step * s.curWays * mem.LineSize
	}
	return s.llcSets * s.curWays * mem.LineSize
}

// migrate re-validates every resident entry against the new geometry.
// Filtered stores drop entries that fall outside the partition (no
// traffic); rearranged stores move misplaced entries and pay for the
// blocks they touch.
func (s *Store) migrate(oldWays, oldSpacing int) uint64 {
	type moved struct {
		e  Entry
		pc mem.PC
	}
	var toMove []moved
	var movedBlocksOut uint64

	blockDirty := make([]bool, s.maxWays)
	for set := 0; set < s.metaSets; set++ {
		setLiveNow := s.setLive(set) || !s.cfg.SetPartitioned
		for i := range blockDirty {
			blockDirty[i] = false
		}
		dirtyBlocks := 0
		for idx := 0; idx < s.stride; idx++ {
			i := set*s.stride + idx
			if s.keys[i] == noKey {
				continue
			}
			sl := &s.slots[i]
			way := idx / s.epb
			keep := setLiveNow && way < s.curWays
			if keep && !s.cfg.Filtered {
				// Rearranged: does the index function still place the
				// entry here?
				h := mem.HashLine64(sl.trigger)
				nset, nlive := s.currentSet(h)
				if !nlive {
					keep = false
				} else if nset != set {
					keep = false
				} else if !s.cfg.Tagged {
					nway, wlive := s.wayOf(h)
					if !wlive || nway != way {
						keep = false
					}
				}
			} else if keep && s.cfg.Filtered {
				// Filtered: fixed index function; entries are never
				// misplaced, but a shrink can deallocate their set/way.
				if s.cfg.SetPartitioned {
					keep = s.setLive(set)
				} else if !s.cfg.Tagged {
					nway, wlive := s.wayOf(mem.HashLine64(sl.trigger))
					keep = wlive && nway == way && way < s.curWays
				} else {
					keep = way < s.curWays
				}
			}
			if keep {
				continue
			}
			if !s.cfg.Filtered {
				// Rearranged stores relocate the entry, under its
				// stored PC when the policy reads one and 0 otherwise.
				m := moved{e: Entry{Trigger: sl.trigger, Targets: s.targetsOf(i)}}
				if s.pcs != nil {
					m.pc = s.pcs[i]
				}
				toMove = append(toMove, m)
				if !blockDirty[way] {
					blockDirty[way] = true
					dirtyBlocks++
				}
			} else {
				s.Stats.DroppedResize++
			}
			s.pol.Evict(set, idx)
			s.clear(i)
		}
		movedBlocksOut += uint64(dirtyBlocks)
	}

	var movedBlocksIn uint64
	if len(toMove) > 0 {
		// Reinsert without the bridge or the insert counters: the shuffle
		// blocks below are the whole cost of a rearrangement.
		stats := s.Stats
		for _, m := range toMove {
			s.place(m.pc, m.e)
		}
		s.Stats = stats
		movedBlocksIn = uint64((len(toMove) + s.epb - 1) / s.epb)
	}

	s.Stats.RearrangeReads += movedBlocksOut
	s.Stats.RearrangeWrites += movedBlocksIn
	return movedBlocksOut + movedBlocksIn
}

// updateReservations pushes the current partition shape into the host LLC.
func (s *Store) updateReservations() {
	if s.cfg.SetPartitioned {
		step := s.curSpacing / s.maxSpacing
		if step < 1 {
			step = 1
		}
		for logical := 0; logical < s.metaSets; logical++ {
			phys := logical * s.maxSpacing
			ways := 0
			if s.curWays > 0 && logical%step == 0 {
				ways = s.curWays
			}
			s.bridge.ReserveWays(phys, ways)
		}
		return
	}
	llcSets, _ := s.bridge.Geometry()
	for set := 0; set < llcSets; set++ {
		s.bridge.ReserveWays(set, s.curWays)
	}
}

// Occupancy returns the number of valid entries (diagnostics).
func (s *Store) Occupancy() int {
	n := 0
	for _, k := range s.keys {
		if k != noKey {
			n++
		}
	}
	return n
}

// SchemeName returns the Table I mnemonic for the store's partitioning
// configuration, e.g. "FTS" for filtered tagged set-partitioning.
func (s *Store) SchemeName() string {
	r := "R"
	if s.cfg.Filtered {
		r = "F"
	}
	t := "U"
	if s.cfg.Tagged {
		t = "T"
	}
	w := "W"
	if s.cfg.SetPartitioned {
		w = "S"
	}
	return fmt.Sprintf("%s%s%s", r, t, w)
}

// DumpEntries returns a copy of every resident entry, for offline analyses
// such as the Figure 12b redundancy measurement.
func (s *Store) DumpEntries() []Entry {
	var out []Entry
	for i, k := range s.keys {
		if k != noKey {
			out = append(out, Entry{Trigger: s.slots[i].trigger, Targets: s.targetsOf(i)})
		}
	}
	return out
}
