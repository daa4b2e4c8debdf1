// Package core implements Streamline, the paper's on-chip temporal
// prefetcher. Streamline stores its metadata as length-4 streams instead of
// pairs (33% more correlations per block), locates entries with filtered
// tagged set-partitioning (32-entry effective associativity, no metadata
// rearrangement on resize), repairs stream misalignment with a per-PC
// 3-entry metadata buffer, recovers filtered triggers by realigning streams,
// replaces metadata with TP-Mockingjay (correlation-utility-aware), sizes
// its partition with accuracy-scored utility partitioning, and sets the
// prefetch degree from per-PC stream stability.
//
// Every mechanism can be disabled independently, which is how the paper's
// ablations (Figures 12, 14 and 15) are produced.
package core

import (
	"streamline/internal/mem"
	"streamline/internal/meta"
	"streamline/internal/prefetch"
)

// Options configures Streamline. DefaultOptions returns the paper's design
// point; the Disable*/override fields produce the ablation variants.
type Options struct {
	// StreamLength is the targets per stream entry (4; Figure 12a sweeps).
	StreamLength int
	// MetaBufferSize is the per-PC stream metadata buffer capacity
	// (3; Figure 12c sweeps; 0 disables it, the "- MB" ablation).
	MetaBufferSize int
	// MaxDegree bounds prefetching (4, the stream length).
	MaxDegree int
	// MetaBytes is the maximum metadata partition size (1MB).
	MetaBytes int
	// FixedBytes pins the partition size and disables dynamic
	// partitioning when positive.
	FixedBytes int
	// MinSets is the permanently allocated metadata set count (64), the
	// floor that keeps sampling alive at the 0MB decision.
	MinSets int

	// DisableAlignment turns off stream alignment (the "- SA" ablation).
	DisableAlignment bool
	// DisableRealignment turns off filtered-trigger realignment
	// (Figure 15's filtering-loss arm).
	DisableRealignment bool
	// DisableDegreeControl pins the degree at MaxDegree.
	DisableDegreeControl bool
	// WayPartitioned swaps the FTS store for an untagged way-partitioned
	// one (the "- TSP" ablation / Streamline-unopt base).
	WayPartitioned bool
	// Unfiltered uses rearranged indexing instead of filtered.
	Unfiltered bool
	// Skewed and Hybrid enable the Section V-D6 filtering mitigations.
	Skewed bool
	Hybrid bool
	// Policy overrides metadata replacement (nil: TP-Mockingjay; the
	// "- TP-MJ" ablation passes meta.NewEntrySRRIP).
	Policy meta.EntryPolicyFactory
	// EqualWeights scores metadata hits like Triangel's partitioner
	// instead of by prefetch accuracy (the Section V-D3 comparison).
	EqualWeights bool
	// Bypass enables the metadata bypass extension (see bypass.go):
	// PCs whose metadata is never reused — scans — stop inserting,
	// addressing the mcf weakness Section V-B1 reports.
	Bypass bool
}

// The paper's Streamline configuration, fixed in every variant.
const (
	// tuSize is the number of training-unit entries.
	tuSize = 256
	// instabilityEpoch is the per-PC degree-control period in accesses.
	instabilityEpoch = 1024
	// cutFull, cutLess1 and cutLess2 are the instability thresholds: fewer
	// than cutFull buffer insertions per epoch prefetches at full degree,
	// fewer than cutLess1 at one less, fewer than cutLess2 at two less.
	cutFull, cutLess1, cutLess2 = 400, 600, 800
	// resizeEpoch is the partitioner period in sampled accesses.
	resizeEpoch = 1 << 15
)

// DefaultOptions returns the paper's Streamline configuration.
func DefaultOptions() Options {
	return Options{
		StreamLength:   4,
		MetaBufferSize: 3,
		MaxDegree:      4,
		MetaBytes:      1 << 20,
		MinSets:        64,
	}
}

// UnoptOptions returns Streamline-unopt (Figure 14): only the stream-based
// metadata format, with Triangel-style management everywhere else.
func UnoptOptions() Options {
	o := DefaultOptions()
	o.MetaBufferSize = 0
	o.DisableAlignment = true
	o.WayPartitioned = true
	o.Unfiltered = true
	o.Policy = meta.NewEntrySRRIP
	o.EqualWeights = true
	return o
}

// Stats counts Streamline-specific events (store-level counts live in the
// meta.Stats of the underlying store).
type Stats struct {
	// CompletedStreams counts stream entries finished by the TU.
	CompletedStreams uint64
	// AlignmentOpportunities counts completed entries whose trigger was
	// found in the metadata buffer (an overlap existed).
	AlignmentOpportunities uint64
	// Alignments counts entries merged by stream alignment.
	Alignments uint64
	// Realignments counts filtered triggers recovered by shifting the
	// stream window back; RealignFailures counts unrecoverable ones.
	Realignments    uint64
	RealignFailures uint64
	// BufferHits/BufferMisses count prefetch-side metadata buffer probes.
	BufferHits     uint64
	BufferMisses   uint64
	StoreFetches   uint64 // buffer misses that hit the store
	DegreeSettings [5]uint64
	// BypassedInserts counts entries the bypass extension kept out of the
	// metadata store (zero unless Options.Bypass).
	BypassedInserts uint64
}

// AlignmentRate returns alignments over opportunities.
func (s Stats) AlignmentRate() float64 {
	if s.AlignmentOpportunities == 0 {
		return 0
	}
	return float64(s.Alignments) / float64(s.AlignmentOpportunities)
}

// mbSlot is one metadata-buffer entry.
type mbSlot struct {
	valid bool
	e     meta.Entry
	lru   uint64
}

// tuEntry is one PC's training-unit state.
type tuEntry struct {
	tag   uint32
	valid bool

	// The stream entry under construction.
	cur meta.Entry

	// History of recent accesses (stream length + 2) for realignment.
	hist  []mem.Line
	histN int

	// Per-PC stream metadata buffer.
	mb []mbSlot

	// Recently issued prefetch lines: used to detect whether the demand
	// stream is following the prefetched path and to avoid duplicates.
	// Allocated when a PC first claims the entry.
	issued *prefetch.Issued

	// The prefetch cursor: the stream position up to which prefetches
	// have been issued. It persists across events so each event continues
	// from where the last one stopped (usually a buffer hit on the same
	// entry) instead of re-walking the whole chain through the store.
	cursor mem.Line
	lead   int // issued-but-not-yet-demanded count (bounds the cursor)

	// Stability-based degree control.
	accessCtr int
	insertCtr int
	degree    int
}

// Prefetcher is the Streamline temporal prefetcher.
type Prefetcher struct {
	opt   Options
	store *meta.Store
	part  *meta.Partitioner

	tu    []tuEntry
	clock uint64

	minBytes int
	bypass   *bypassState // nil unless Options.Bypass

	// Scratch target buffers reused across train calls so the hot path
	// does not allocate. Each backs at most one live Entry at a time:
	// trainBuf the completed stream, realignBuf a realigned copy of it,
	// alignBuf the merge of a buffered entry with the fresh one. Every
	// consumer (store.Insert, mbInsert) copies the targets it keeps, so
	// all three are dead once train returns, and prefetchChain reuses
	// trainBuf for a store hit's targets when the PC has no metadata
	// buffer to copy them into.
	trainBuf   []mem.Line
	realignBuf []mem.Line
	alignBuf   []mem.Line

	Stats Stats
}

// New constructs Streamline over the given LLC metadata bridge.
func New(opt Options, bridge meta.Bridge) *Prefetcher {
	return newPrefetcher(opt, bridge, resizeEpoch)
}

// newPrefetcher is New with the partitioner's epoch as a parameter, so tests
// can reach other values.
func newPrefetcher(opt Options, bridge meta.Bridge, epoch uint64) *Prefetcher {
	if opt.MetaBufferSize == 0 {
		// The instability metric counts metadata-buffer insertions; with
		// no buffer every access inserts, which would read as maximal
		// instability. Bufferless variants (the "- MB" ablation) use a
		// fixed degree instead.
		opt.DisableDegreeControl = true
	}
	storeCfg := meta.StoreConfig{
		Format:         meta.Stream,
		StreamLength:   opt.StreamLength,
		Tagged:         !opt.WayPartitioned,
		Filtered:       !opt.Unfiltered,
		SetPartitioned: !opt.WayPartitioned,
		Skewed:         opt.Skewed,
		Hybrid:         opt.Hybrid,
		MetaWaysPerSet: 8,
		MaxBytes:       opt.MetaBytes,
		Policy:         opt.Policy,
	}
	if storeCfg.Policy == nil {
		storeCfg.Policy = NewTPMockingjay
	}
	p := &Prefetcher{
		opt:   opt,
		store: meta.NewStore(storeCfg, bridge),
		tu:    make([]tuEntry, tuSize),
	}
	p.minBytes = opt.MinSets * 8 * mem.LineSize
	if p.minBytes > opt.MetaBytes {
		p.minBytes = opt.MetaBytes
	}

	_, llcWays := bridge.Geometry()
	weight := meta.StreamlineMetaWeight
	if opt.EqualWeights {
		weight = meta.EqualMetaWeight
	}
	mode := meta.SetMode
	if opt.WayPartitioned {
		mode = meta.WayMode
	}
	p.part = meta.NewPartitioner(meta.PartitionerConfig{
		Mode:            mode,
		Sizes:           []int{0, opt.MetaBytes / 2, opt.MetaBytes},
		MaxBytes:        opt.MetaBytes,
		LLCWays:         llcWays,
		MetaWaysPerSet:  8,
		EntriesPerBlock: meta.EntriesPerBlock(meta.Stream, opt.StreamLength),
		EpochAccesses:   epoch,
		MetaWeight:      weight,
	})
	if opt.FixedBytes > 0 {
		p.store.Resize(opt.FixedBytes)
	}
	if opt.Bypass {
		p.bypass = newBypassState()
	}
	return p
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "streamline" }

// MetaStats implements prefetch.MetaReporter.
func (p *Prefetcher) MetaStats() meta.Stats { return p.store.Stats }

// Store exposes the metadata store for experiments.
func (p *Prefetcher) Store() *meta.Store { return p.store }

// ObserveAccuracy implements prefetch.AccuracyConsumer: the utility-aware
// partitioner scores metadata hits by epoch prefetch accuracy.
func (p *Prefetcher) ObserveAccuracy(acc float64) { p.part.ObserveAccuracy(acc) }

// ObserveLLCData implements prefetch.LLCDataObserver.
func (p *Prefetcher) ObserveLLCData(set int, line mem.Line) {
	if p.opt.FixedBytes > 0 {
		return
	}
	p.part.ObserveData(set, line)
}

func (p *Prefetcher) tuFor(pc mem.PC) *tuEntry {
	idx := mem.HashPC(pc, 16) % tuSize
	tag := uint32(mem.HashPC(pc, 24))
	tu := &p.tu[idx]
	if !tu.valid || tu.tag != tag {
		*tu = tuEntry{
			tag:    tag,
			valid:  true,
			hist:   make([]mem.Line, p.opt.StreamLength+2),
			mb:     make([]mbSlot, p.opt.MetaBufferSize),
			issued: prefetch.ResetIssued(tu.issued),
			degree: p.opt.MaxDegree,
		}
		tu.cur.Targets = make([]mem.Line, 0, p.opt.StreamLength)
	}
	return tu
}

// ---- metadata buffer ----------------------------------------------------

// mbFind locates addr within a buffered entry, returning the entry, its
// position (0 = trigger), and whether it was found somewhere other than the
// final position (final-position hits carry no successor information and,
// for alignment, no overlap).
func (tu *tuEntry) mbFind(addr mem.Line) (slot *mbSlot, pos int, ok bool) {
	for i := range tu.mb {
		s := &tu.mb[i]
		if !s.valid {
			continue
		}
		if s.e.Trigger == addr {
			return s, 0, true
		}
		for j, t := range s.e.Targets {
			if t == addr && j < len(s.e.Targets)-1 {
				return s, j + 1, true
			}
		}
	}
	return nil, 0, false
}

// mbClaim returns the buffer slot that takes trigger's entry — the valid
// slot already holding trigger, else the first invalid slot, else the least
// recently used one — marked valid and most recently used, with its trigger
// set. The caller writes the targets and the confidence bit into the slot's
// own target buffer. It returns nil when the PC has no buffer.
func (p *Prefetcher) mbClaim(tu *tuEntry, trigger mem.Line) *mbSlot {
	if len(tu.mb) == 0 {
		return nil
	}
	p.clock++
	victim := 0
	for i := range tu.mb {
		s := &tu.mb[i]
		if !s.valid || s.e.Trigger == trigger {
			victim = i
			break
		}
		if s.lru < tu.mb[victim].lru {
			victim = i
		}
	}
	s := &tu.mb[victim]
	s.valid, s.lru, s.e.Trigger = true, p.clock, trigger
	return s
}

// mbInsert copies e, whose targets live in a scratch buffer the next train
// operation overwrites, into the PC's metadata buffer.
func (p *Prefetcher) mbInsert(tu *tuEntry, e meta.Entry) {
	if s := p.mbClaim(tu, e.Trigger); s != nil {
		s.e.Targets, s.e.Conf = append(s.e.Targets[:0], e.Targets...), e.Conf
	}
}

// ---- training -----------------------------------------------------------

// pushHist records an access for realignment.
func (tu *tuEntry) pushHist(l mem.Line) {
	copy(tu.hist[1:], tu.hist[:len(tu.hist)-1])
	tu.hist[0] = l
	if tu.histN < len(tu.hist) {
		tu.histN++
	}
}

// train appends the access to the PC's current stream and writes completed
// entries back, performing stream alignment and filtered-trigger
// realignment.
func (p *Prefetcher) train(now uint64, pc mem.PC, tu *tuEntry, line mem.Line) {
	if tu.cur.Trigger == 0 && len(tu.cur.Targets) == 0 {
		tu.cur.Trigger = line
		return
	}
	if tu.cur.Trigger == line && len(tu.cur.Targets) == 0 {
		return // duplicate trigger access; no self-correlation
	}
	tu.cur.Targets = append(tu.cur.Targets, line)
	if len(tu.cur.Targets) < p.opt.StreamLength {
		return
	}

	// The entry is complete.
	p.Stats.CompletedStreams++
	p.trainBuf = append(p.trainBuf[:0], tu.cur.Targets...)
	e := meta.Entry{Trigger: tu.cur.Trigger, Targets: p.trainBuf}

	// Filtered-trigger realignment (Section IV-C): shift the stream
	// window back through recent history until the trigger lands in the
	// partition.
	if p.store.WouldFilter(e.Trigger) && !p.opt.DisableRealignment {
		if re, ok := p.realign(tu, e); ok {
			p.Stats.Realignments++
			e = re
		} else {
			p.Stats.RealignFailures++
		}
	}

	// Stream alignment (Section IV-B2): merge with an overlapping buffered
	// entry so the old trigger keeps prefetching the updated stream. The
	// fresh entry's leftover correlations bootstrap the next entry.
	nextTrigger := line
	var leftover []mem.Line
	if !p.opt.DisableAlignment {
		if old, pos, ok := tu.mbFind(e.Trigger); ok {
			p.Stats.AlignmentOpportunities++
			if aligned, consumed, ok2 := alignStreams(old.e, pos, e, p.opt.StreamLength, p.alignBuf); ok2 {
				p.Stats.Alignments++
				p.alignBuf = aligned.Targets[:0]
				if consumed < len(e.Targets) {
					leftover = e.Targets[consumed:]
					nextTrigger = aligned.Targets[len(aligned.Targets)-1]
				}
				e = aligned
			}
		}
	}

	if p.bypass != nil {
		p.bypass.observeCompleted(pc, e.Trigger)
	}
	if p.bypass == nil || !p.bypass.shouldBypass(pc) {
		p.store.Insert(now, pc, e)
		if p.opt.FixedBytes == 0 {
			p.part.ObserveTrigger(p.store.LogicalSetOf(e.Trigger), e.Trigger)
		}
	} else {
		p.Stats.BypassedInserts++
	}
	p.mbInsert(tu, e)

	// The final address (or the alignment leftover) bootstraps the next
	// entry, keeping the stream chain contiguous.
	tu.cur.Trigger = nextTrigger
	tu.cur.Targets = tu.cur.Targets[:0]
	tu.cur.Targets = append(tu.cur.Targets, leftover...)
}

// realign rebuilds the completed entry with an earlier trigger from the
// access history so that filtered indexing does not discard it.
func (p *Prefetcher) realign(tu *tuEntry, e meta.Entry) (meta.Entry, bool) {
	// hist[0] is the current access (the entry's final target); the
	// window [trigger, t1..tK] occupies hist[K..0]. Shifting back by s
	// uses hist[K+s] as trigger.
	k := p.opt.StreamLength
	for shift := 1; k+shift < tu.histN; shift++ {
		cand := tu.hist[k+shift]
		if p.store.WouldFilter(cand) {
			continue
		}
		re := meta.Entry{Trigger: cand, Targets: p.realignBuf[:0]}
		for j := k + shift - 1; j >= shift && len(re.Targets) < k; j-- {
			re.Targets = append(re.Targets, tu.hist[j])
		}
		p.realignBuf = re.Targets[:0]
		if len(re.Targets) == k {
			return re, true
		}
	}
	return meta.Entry{}, false
}

// alignStreams merges an old entry with a new overlapping one: the aligned
// entry keeps the old trigger and the old prefix up to the overlap point,
// then continues with the new entry's updated correlations (Figure 3b). It
// returns the aligned entry and how many of the fresh entry's targets it
// consumed — the rest bootstrap the next entry. The aligned targets are
// built in buf (which must not alias either input's targets).
func alignStreams(old meta.Entry, pos int, fresh meta.Entry, k int, buf []mem.Line) (meta.Entry, int, bool) {
	if pos >= 1+len(old.Targets) {
		return meta.Entry{}, 0, false
	}
	aligned := meta.Entry{Trigger: old.Trigger, Targets: buf[:0]}
	// Old prefix: targets before the overlap position.
	for j := 0; j < pos-1 && j < len(old.Targets); j++ {
		aligned.Targets = append(aligned.Targets, old.Targets[j])
	}
	if pos >= 1 {
		// The overlap address itself (the fresh entry's trigger).
		aligned.Targets = append(aligned.Targets, fresh.Trigger)
	}
	consumed := 0
	for _, t := range fresh.Targets {
		if len(aligned.Targets) >= k {
			break
		}
		aligned.Targets = append(aligned.Targets, t)
		consumed++
	}
	if len(aligned.Targets) == 0 {
		return meta.Entry{}, 0, false
	}
	return aligned, consumed, true
}

// ---- prefetching ---------------------------------------------------------

// maxLead bounds how many issued-but-unconsumed prefetches a PC may have
// outstanding — the prefetch distance, in stream positions. It also bounds
// how much work a wrong-path excursion (a chain hop through an ambiguous
// trigger) can waste before the demand stream re-anchors the cursor.
const maxLead = 16

// prefetchChain issues up to the PC's degree of new prefetch requests,
// continuing from the persistent stream cursor. Because the cursor usually
// sits inside a buffered entry, a stable PC performs about one metadata
// fetch per stream length of accesses — the stability property Section
// IV-E6's degree controller measures. When the demand stream leaves the
// prefetched path, the cursor re-anchors at the demand line.
func (p *Prefetcher) prefetchChain(now uint64, pc mem.PC, tu *tuEntry, line mem.Line, out []prefetch.Request) []prefetch.Request {
	deg := tu.degree
	if p.opt.DisableDegreeControl {
		deg = p.opt.MaxDegree
	}
	if deg <= 0 {
		return out
	}
	// Track whether the demand stream follows the prefetched path.
	if tu.issued.Has(line) {
		if tu.lead > 0 {
			tu.lead--
		}
	} else {
		// Off the prefetched path: re-anchor at the demand line.
		tu.cursor = line
		tu.lead = 0
	}
	if tu.cursor == 0 {
		tu.cursor = line
	}
	// The demand's own buffer position is authoritative: if the cursor's
	// entry no longer contains the demand's forward path (a wrong-path
	// excursion through an ambiguous trigger), snap back to it. The probe
	// that finds the cursor's entry is the first hop's buffer lookup.
	slot, pos, ok := tu.mbFind(tu.cursor)
	if !ok && tu.cursor != line {
		if slot, pos, ok = tu.mbFind(line); ok {
			tu.cursor = line
			tu.lead = 0
		}
	}
	issued := 0
	cur := tu.cursor
	var delay uint64
	for hops := 0; issued < deg && tu.lead < maxLead && hops < 3; hops++ {
		if hops > 0 {
			slot, pos, ok = tu.mbFind(cur)
		}
		var entry meta.Entry
		if ok {
			p.Stats.BufferHits++
			entry = slot.e
		} else {
			p.Stats.BufferMisses++
			// Every buffer miss costs a metadata read attempt — the
			// instability signal of Section IV-E6 — whether or not the
			// trigger is resident.
			tu.insertCtr++
			if p.bypass != nil {
				p.bypass.observeLookup(cur)
			}
			hit, found, lat := p.store.Lookup(now+delay, pc, cur)
			if !found {
				break
			}
			p.Stats.StoreFetches++
			delay += lat
			// The hit's targets are copied once: into the buffer slot
			// that keeps them, or into trainBuf for a PC without one.
			if s := p.mbClaim(tu, hit.Trigger()); s != nil {
				s.e.Targets, s.e.Conf = hit.AppendTargets(s.e.Targets[:0]), hit.Conf()
				entry = s.e
			} else {
				p.trainBuf = hit.AppendTargets(p.trainBuf[:0])
				entry = meta.Entry{Trigger: hit.Trigger(), Targets: p.trainBuf, Conf: hit.Conf()}
			}
			pos = 0
		}
		// An unconfirmed entry (its trigger recurs with different
		// continuations, or it has not yet been re-validated by a second
		// store) rates only a single cautious prefetch; confirmed entries
		// — and buffer hits, whose match is position-verified context —
		// get the full degree. The confidence bit is what keeps hops
		// through ambiguous triggers from prefetching some other
		// instance's stream.
		budget := deg
		if !ok && !entry.Conf {
			budget = issued + 1
		}
		next := cur
		for j := pos; j < len(entry.Targets) && issued < budget && issued < deg && tu.lead < maxLead; j++ {
			t := entry.Targets[j]
			next = t
			if tu.issued.Has(t) {
				continue // already in flight
			}
			out = append(out, prefetch.Request{Addr: mem.AddrOf(t), Delay: delay})
			tu.issued.Mark(t)
			issued++
			tu.lead++
		}
		if !ok && !entry.Conf {
			break // do not chain past an unconfirmed entry
		}
		if next == cur {
			break
		}
		cur = next
		tu.cursor = next
	}
	return out
}

// updateDegree applies stability-based degree control (Section IV-E6).
func (p *Prefetcher) updateDegree(tu *tuEntry) {
	tu.accessCtr++
	if tu.accessCtr < instabilityEpoch {
		return
	}
	ins := tu.insertCtr
	switch {
	case ins < cutFull:
		tu.degree = p.opt.MaxDegree
	case ins < cutLess1:
		tu.degree = max(1, p.opt.MaxDegree-1)
	case ins < cutLess2:
		tu.degree = max(1, p.opt.MaxDegree-2)
	default:
		tu.degree = 1
	}
	if tu.degree < len(p.Stats.DegreeSettings) {
		p.Stats.DegreeSettings[tu.degree]++
	}
	tu.accessCtr = 0
	tu.insertCtr = 0
}

// ---- top level ------------------------------------------------------------

// Train implements prefetch.Prefetcher: called on L2 misses and prefetch
// hits (Figure 8's training and prefetch flows).
func (p *Prefetcher) Train(ev prefetch.Event, out []prefetch.Request) []prefetch.Request {
	line := ev.Line()
	tu := p.tuFor(ev.PC)

	tu.pushHist(line)
	p.train(ev.Now, ev.PC, tu, line)
	out = p.prefetchChain(ev.Now, ev.PC, tu, line, out)
	if !p.opt.DisableDegreeControl {
		p.updateDegree(tu)
	}
	p.maybeResize()
	return out
}

// maybeResize applies the utility-aware partitioner's epoch decisions,
// honoring the permanently allocated minimum sets.
func (p *Prefetcher) maybeResize() {
	if p.opt.FixedBytes > 0 {
		return
	}
	size, changed := p.part.Tick()
	if !changed {
		return
	}
	if size < p.minBytes {
		size = p.minBytes
	}
	p.store.Resize(size)
}
