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
	noKey     = ^uint32(0)
	noPartial = ^uint16(0)
)

// slot is the cold half of an entry slot, read only after its key or its
// partial tag matched. It carries the entry's first target, so a pairwise hit
// reads the key row and this one record.
type slot struct {
	trigger mem.Line
	first   mem.Line // target 1
	pc      mem.PC
	n       uint8 // targets held, 1..Store.k
	conf    bool  // confidence bit: targets confirmed by a repeat store
}

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
	// tag array) for aliasing — and touch slots and targets on a match.
	stride  int // slots per logical set
	k       int // targets per slot
	keys    []uint32
	partial []uint16
	slots   []slot
	targets []mem.Line // targets 2..n of slot i, at stride k-1 (empty when k = 1)
	pol     EntryPolicy

	// lookupBuf backs the Targets slice of the Entry Lookup returns; it is
	// valid until the next Lookup. Callers that retain an entry across
	// store operations must copy the targets (Streamline's metadata
	// buffer does).
	lookupBuf []mem.Line

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
	s.keys, s.partial = make([]uint32, n), make([]uint16, n)
	s.slots, s.targets = make([]slot, n), make([]mem.Line, n*(s.k-1))
	for i := range s.keys {
		s.keys[i], s.partial[i] = noKey, noPartial
	}
	s.pol = cfg.Policy(s.metaSets, s.stride)
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
// of one 64-bit line hash: bits [0,22) index the set, [22,32) form the
// hashed trigger tag, [32,38+) the partial tag, [48,58) the second-level
// way index, and [58,60) drive skewed indexing.
func (s *Store) triggerHash(t mem.Line) uint32 {
	return uint32(mem.HashLine64(t)>>22) & (1<<triggerHashBits - 1)
}

func (s *Store) partialTag(t mem.Line) uint16 {
	// A different bit slice than the trigger hash, as the partial tag
	// lives in the LLC tag store.
	return uint16(mem.HashLine64(t)>>32) & (1<<uint(s.cfg.PartialTagBits) - 1)
}

// logicalSet maps a trigger to its logical metadata set under the FIXED
// maximum-size index function.
func (s *Store) logicalSet(t mem.Line) int {
	h := mem.HashLine64(t)
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
func (s *Store) LogicalSetOf(t mem.Line) int { return s.logicalSet(t) }

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

// currentSet maps a trigger to the logical set it occupies under the
// CURRENT index function (rearranged stores re-index on resize; filtered
// stores always use logicalSet and may filter).
func (s *Store) currentSet(t mem.Line) (logical int, live bool) {
	logical = s.logicalSet(t)
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

// wayOf returns the way an entry must occupy for untagged stores under the
// current (rearranged) or maximum (filtered) way-index function, and
// whether the trigger is filtered out (filtered way-partitioning).
func (s *Store) wayOf(t mem.Line) (way int, live bool) {
	h := int(mem.HashLine64(t) >> 48 & (1<<10 - 1))
	if s.cfg.Filtered {
		way = h % s.maxWays
		return way, way < s.curWays
	}
	if s.curWays == 0 {
		return 0, false
	}
	return h % s.curWays, true
}

// candidates returns the contiguous slot range [lo, hi) the trigger's entry
// may occupy within its logical set, honoring the two-level index (untagged)
// or partial-tag aliasing (tagged). Every placement constraint resolves to a
// contiguous range — a whole way's slots or every live slot — so no index
// list is materialized. It also reports whether aliasing constrained a
// tagged placement.
func (s *Store) candidates(set int, t mem.Line) (lo, hi int, aliased bool, live bool) {
	if !s.cfg.Tagged {
		way, ok := s.wayOf(t)
		if !ok || way >= s.curWays {
			return 0, 0, false, false
		}
		lo = way * s.epb
		return lo, lo + s.epb, false, true
	}
	// Tagged: any live way, but an existing entry with the same partial
	// tag pins the incoming entry to its way.
	pt, base, hi := s.partialTag(t), set*s.stride, s.curWays*s.epb
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
	logical := s.logicalSet(t)
	if !s.setLive(logical) {
		return true
	}
	if !s.cfg.Tagged && !s.cfg.SetPartitioned {
		_, ok := s.wayOf(t)
		return !ok
	}
	return false
}

// find scans slots [lo, hi) of a logical set for key and returns the flat
// index of the first match, -1 when there is none.
func (s *Store) find(set, lo, hi int, key uint32) int {
	base := set * s.stride
	for i, k := range s.keys[base+lo : base+hi] {
		if k == key {
			return base + lo + i
		}
	}
	return -1
}

// rest returns targets 2..n of the slot at flat index i.
func (s *Store) rest(i int) []mem.Line {
	j := i * (s.k - 1)
	return s.targets[j : j+int(s.slots[i].n)-1]
}

// targetsOf returns a fresh copy of the targets held by the slot at flat
// index i.
func (s *Store) targetsOf(i int) []mem.Line {
	return append(append(make([]mem.Line, 0, s.slots[i].n), s.slots[i].first), s.rest(i)...)
}

// Lookup searches the store for the trigger's entry at cycle now, charging
// one LLC metadata read unless filtered indexing proves statically that the
// trigger cannot be present. It returns the entry, whether it was found, and
// the lookup latency. The entry's Targets slice is backed by a buffer owned
// by the store and is only valid until the next Lookup.
func (s *Store) Lookup(now uint64, pc mem.PC, t mem.Line) (Entry, bool, uint64) {
	s.Stats.Lookups++
	s.lastNow = now
	set, live := s.currentSet(t)
	if !live {
		s.Stats.FilteredLookups++
		return Entry{}, false, 0
	}
	lo, hi, _, ok := s.candidates(set, t)
	if !ok {
		s.Stats.FilteredLookups++
		return Entry{}, false, 0
	}
	lat := s.bridge.MetaAccess(now, mem.MetaRead)
	s.Stats.Reads++
	if i := s.find(set, lo, hi, s.triggerHash(t)); i >= 0 {
		sl := &s.slots[i]
		s.Stats.TriggerHits++
		s.pol.Touch(set, i-set*s.stride, EntryAccess{PC: pc, Trigger: t, FirstTarget: sl.first})
		buf := slices.Grow(s.lookupBuf[:0], int(sl.n))
		s.lookupBuf = append(append(buf, sl.first), s.rest(i)...)
		return Entry{Trigger: sl.trigger, Targets: s.lookupBuf, Conf: sl.conf}, true, lat
	}
	return Entry{}, false, lat
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
	set, live := s.currentSet(e.Trigger)
	if !live {
		s.Stats.FilteredInserts++
		return 0, false
	}
	lo, hi, aliased, ok := s.candidates(set, e.Trigger)
	if !ok {
		s.Stats.FilteredInserts++
		return 0, false
	}
	if aliased {
		s.Stats.AliasedInserts++
	}
	acc := EntryAccess{PC: pc, Trigger: e.Trigger, FirstTarget: e.Targets[0]}
	h, base := s.triggerHash(e.Trigger), set*s.stride

	// In-place update of an existing entry for this trigger. The
	// confidence bit confirms on identical targets and clears otherwise.
	if i := s.find(set, lo, hi, h); i >= 0 {
		same := s.slots[i].first == e.Targets[0] && slices.Equal(s.rest(i), e.Targets[1:])
		s.storeInto(i, h, e, pc)
		s.slots[i].conf = same
		s.pol.Touch(set, i-base, acc)
		s.Stats.Updates++
		lat := s.bridge.MetaAccess(now, mem.MetaWrite)
		s.Stats.Writes++
		return lat, same
	}
	// Free slot, else victim.
	i := s.find(set, lo, hi, noKey)
	if i < 0 {
		i = base + s.pol.Victim(set, lo, hi, acc)
		s.pol.Evict(set, i-base)
		s.Stats.Evictions++
	}
	s.storeInto(i, h, e, pc)
	s.pol.Fill(set, i-base, acc)
	s.Stats.Inserts++
	lat := s.bridge.MetaAccess(now, mem.MetaWrite)
	s.Stats.Writes++
	return lat, false
}

// storeInto writes e, whose trigger hashes to key, into the slot at flat
// index i, truncating its targets to the format's k.
func (s *Store) storeInto(i int, key uint32, e Entry, pc mem.PC) {
	j := i * (s.k - 1)
	n := 1 + copy(s.targets[j:j+s.k-1], e.Targets[1:])
	s.keys[i], s.partial[i] = key, s.partialTag(e.Trigger)
	s.slots[i] = slot{trigger: e.Trigger, first: e.Targets[0], pc: pc, n: uint8(n)}
}

// clear empties the slot at flat index i.
func (s *Store) clear(i int) {
	s.keys[i], s.partial[i], s.slots[i] = noKey, noPartial, slot{}
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
				nset, nlive := s.currentSet(sl.trigger)
				if !nlive {
					keep = false
				} else if nset != set {
					keep = false
				} else if !s.cfg.Tagged {
					nway, wlive := s.wayOf(sl.trigger)
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
					nway, wlive := s.wayOf(sl.trigger)
					keep = wlive && nway == way && way < s.curWays
				} else {
					keep = way < s.curWays
				}
			}
			if keep {
				continue
			}
			if !s.cfg.Filtered {
				// Rearranged stores relocate the entry.
				toMove = append(toMove, moved{
					e:  Entry{Trigger: sl.trigger, Targets: s.targetsOf(i)},
					pc: sl.pc,
				})
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
		// Reinsert without charging normal insert traffic; count shuffle
		// blocks instead. The reinsertion has no cycle of its own, so the
		// cycle Resize stamps its event with survives it too.
		lastNow := s.lastNow
		saveReads, saveWrites := s.Stats.Reads, s.Stats.Writes
		saveIns, saveUpd, saveEvict := s.Stats.Inserts, s.Stats.Updates, s.Stats.Evictions
		saveFilt, saveAlias := s.Stats.FilteredInserts, s.Stats.AliasedInserts
		for _, m := range toMove {
			s.Insert(0, m.pc, m.e)
		}
		s.Stats.Reads, s.Stats.Writes = saveReads, saveWrites
		s.Stats.Inserts, s.Stats.Updates, s.Stats.Evictions = saveIns, saveUpd, saveEvict
		s.Stats.FilteredInserts, s.Stats.AliasedInserts = saveFilt, saveAlias
		s.lastNow = lastNow
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
