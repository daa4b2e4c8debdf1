// Package triangel implements the Triangel temporal prefetcher (Ainsworth &
// Mukhanov, ISCA 2024), the paper's state-of-the-art baseline. Triangel
// extends Triage with (1) per-PC reuse and pattern confidence measured by a
// history sampler and second-chance sampler, which filter scan PCs out of
// the metadata and control prefetch degree; (2) a metadata reuse buffer
// (MRB) that reduces LLC metadata traffic; and (3) dynamic partitioning of
// its pairwise, way-partitioned metadata store — whose two-level index
// function forces a costly metadata rearrangement on every resize, the
// overhead Streamline's filtered indexing eliminates.
package triangel

import (
	"math/bits"

	"streamline/internal/mem"
	"streamline/internal/meta"
	"streamline/internal/prefetch"
)

// The paper's Triangel configuration.
const (
	// tuSize is the number of training-unit entries (per-PC state).
	tuSize = 256
	// hsSets and hsWays shape the history sampler.
	hsSets, hsWays = 32, 4
	// scsSize is the second-chance sampler capacity.
	scsSize = 16
	// sampleShift is the initial per-PC sampling period exponent: one in
	// 2^sampleShift training events enters the HS. The period adapts per
	// PC (Triangel's 4-bit dynamic sampling rate): unused evictions grow
	// it until sampled correlations survive to their reuse.
	sampleShift = 7
	// reuseThreshold gates metadata insertion: PCs whose correlations are
	// not reused (scans) are bypassed. Range 0..15.
	reuseThreshold = 6
	// mrbSize is the metadata reuse buffer capacity (entries).
	mrbSize = 32
	// resizeEpoch is the dynamic partitioner's decision period (accesses).
	resizeEpoch = 50_000
)

// Config parameterizes Triangel.
type Config struct {
	// MaxDegree bounds the prefetch chain (4 in the paper).
	MaxDegree int
	// MetaBytes is the maximum metadata partition size (1MB).
	MetaBytes int
	// FixedBytes pins the partition and disables dynamic partitioning
	// when positive (used by the storage-efficiency sweeps).
	FixedBytes int
	// Policy overrides the metadata replacement policy (default SRRIP,
	// per the Triangel paper; Figure 13c swaps in TP-Mockingjay).
	Policy meta.EntryPolicyFactory
}

// DefaultConfig returns the paper's Triangel configuration.
func DefaultConfig() Config {
	return Config{MaxDegree: 4, MetaBytes: 1 << 20}
}

// tuEntry is one PC's training state.
type tuEntry struct {
	tag       uint32
	last0     mem.Line // most recent address
	last1     mem.Line // the one before
	valid     bool
	haveLast1 bool

	// Recently issued prefetch lines, skipped without spending degree so
	// the chain runs ahead of the demand stream (timeliness); allocated
	// when a PC first claims the entry.
	issued *prefetch.Issued
}

// hsEntry is a sampled correlation in the history sampler.
type hsEntry struct {
	valid   bool
	trigger mem.Line
	target  mem.Line
	pcSig   uint32
	dist    uint8 // correlation distance: 1, or 2 under lookahead
	used    bool
	lru     uint64
}

// scsEntry is a second-chance sampler slot.
type scsEntry struct {
	valid   bool
	trigger mem.Line
	pcSig   uint32
}

// mrbEntry caches a recently fetched metadata entry. The MRB is an exact LRU
// and never invalidates: slots fill in index order, then the least recently
// used is replaced. newer and older link the recency ring through the sentinel
// slot 0 (its older is the most, its newer the least recently used entry);
// next chains one hash bucket's entries, ending at 0.
type mrbEntry struct {
	conf               bool
	trigger            mem.Line
	target             mem.Line
	newer, older, next int32
}

// Prefetcher is the Triangel temporal prefetcher.
type Prefetcher struct {
	cfg   Config
	store *meta.Store
	part  *meta.Partitioner

	tu  []tuEntry
	hs  [hsSets][hsWays]hsEntry
	scs [scsSize]scsEntry
	// mrb: the sentinel, then the entries in use; mrbHead: bucket → first slot.
	mrb     []mrbEntry
	mrbHead []int32

	pcConf pcConfTable

	clock   uint64
	scsNext int

	// insTarget backs the one-element Targets slice of pairwise inserts;
	// the store copies what it keeps.
	insTarget [1]mem.Line

	// MRBHits counts metadata reads avoided by the reuse buffer.
	MRBHits uint64
}

// pcState holds confidence shared across TU replacements of the same PC.
type pcState struct {
	reuseConf   int8
	patternConf int8
	sampleShift uint8 // dynamic sampling period exponent (0..12)
	sampleCtr   uint32
	laMode      bool // lookahead engaged (hysteretic)
}

// pcConfTable maps 24-bit PC signatures to their pcState: an open-addressed
// index over a chunked arena, replacing a map on the per-train hot path.
// Growing rehashes only the index arrays; the states live in fixed-size
// arena chunks, so *pcState pointers stay valid for the table's lifetime
// (Train holds one across conf calls that may insert other signatures).
type pcConfTable struct {
	keys  []uint32 // sig+1; 0 marks an empty probe slot
	idx   []int32  // arena position of the slot's state
	arena [][]pcState
	n     int
}

const pcConfChunk = 256

func (t *pcConfTable) at(j int32) *pcState {
	return &t.arena[j/pcConfChunk][j%pcConfChunk]
}

// find returns the signature's state, or nil if absent. Signatures are
// already hashed (HashPC), so they probe directly.
func (t *pcConfTable) find(sig uint32) *pcState {
	if len(t.keys) == 0 {
		return nil
	}
	mask := uint32(len(t.keys) - 1)
	for i := sig & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case sig + 1:
			return t.at(t.idx[i])
		case 0:
			return nil
		}
	}
}

// insert adds a state for a signature not already present.
func (t *pcConfTable) insert(sig uint32, st pcState) *pcState {
	if 4*(t.n+1) > 3*len(t.keys) {
		t.grow()
	}
	j := int32(t.n)
	if t.n%pcConfChunk == 0 {
		t.arena = append(t.arena, make([]pcState, pcConfChunk))
	}
	*t.at(j) = st
	t.n++
	mask := uint32(len(t.keys) - 1)
	for i := sig & mask; ; i = (i + 1) & mask {
		if t.keys[i] == 0 {
			t.keys[i], t.idx[i] = sig+1, j
			break
		}
	}
	return t.at(j)
}

func (t *pcConfTable) grow() {
	oldKeys, oldIdx := t.keys, t.idx
	size := 2 * len(oldKeys)
	if size == 0 {
		size = 64
	}
	t.keys = make([]uint32, size)
	t.idx = make([]int32, size)
	mask := uint32(size - 1)
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		for j := (k - 1) & mask; ; j = (j + 1) & mask {
			if t.keys[j] == 0 {
				t.keys[j], t.idx[j] = k, oldIdx[i]
				break
			}
		}
	}
}

// lookahead applies hysteresis: engage at pattern >= 12, disengage < 6.
func (st *pcState) lookahead() bool {
	if st.laMode {
		if st.patternConf < 6 {
			st.laMode = false
		}
	} else if st.patternConf >= 12 {
		st.laMode = true
	}
	return st.laMode
}

// New constructs a Triangel instance over the given LLC bridge.
func New(cfg Config, bridge meta.Bridge) *Prefetcher {
	return newPrefetcher(cfg, bridge, mrbSize, resizeEpoch)
}

// newPrefetcher is New with the MRB capacity and the partitioner's epoch
// as parameters, so tests can reach other values.
func newPrefetcher(cfg Config, bridge meta.Bridge, mrbEntries int, epoch uint64) *Prefetcher {
	storeCfg := meta.StoreConfig{
		Format:         meta.Pairwise,
		Tagged:         false,
		Filtered:       false,
		SetPartitioned: false,
		MetaWaysPerSet: 8,
		MaxBytes:       cfg.MetaBytes,
		Policy:         cfg.Policy,
	}
	if storeCfg.Policy == nil {
		storeCfg.Policy = meta.NewEntrySRRIP
	}
	p := &Prefetcher{
		cfg:   cfg,
		store: meta.NewStore(storeCfg, bridge),
		tu:    make([]tuEntry, tuSize),
		mrb:   make([]mrbEntry, 1, mrbEntries+1),
		// one bucket per entry, rounded up to a power of two
		mrbHead: make([]int32, 1<<bits.Len(uint(mrbEntries-1))),
	}
	_, llcWays := bridge.Geometry()
	sizes := make([]int, 0, 9)
	for w := 0; w <= storeCfg.MetaWaysPerSet; w++ {
		sizes = append(sizes, cfg.MetaBytes*w/storeCfg.MetaWaysPerSet)
	}
	p.part = meta.NewPartitioner(meta.PartitionerConfig{
		Mode:            meta.WayMode,
		Sizes:           sizes,
		MaxBytes:        cfg.MetaBytes,
		LLCWays:         llcWays,
		MetaWaysPerSet:  storeCfg.MetaWaysPerSet,
		EntriesPerBlock: meta.EntriesPerBlock(storeCfg.Format, storeCfg.StreamLength),
		EpochAccesses:   epoch,
		MetaWeight:      meta.EqualMetaWeight,
	})
	if cfg.FixedBytes > 0 {
		p.store.Resize(cfg.FixedBytes)
	}
	return p
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "triangel" }

// MetaStats implements prefetch.MetaReporter.
func (p *Prefetcher) MetaStats() meta.Stats { return p.store.Stats }

// Store exposes the metadata store for experiments.
func (p *Prefetcher) Store() *meta.Store { return p.store }

// ObserveLLCData implements prefetch.LLCDataObserver, feeding the dynamic
// partitioner's data-utility profile.
func (p *Prefetcher) ObserveLLCData(set int, line mem.Line) {
	if p.cfg.FixedBytes > 0 {
		return
	}
	p.part.ObserveData(set, line)
}

func (p *Prefetcher) conf(sig uint32) *pcState {
	if st := p.pcConf.find(sig); st != nil {
		return st
	}
	// New PCs start mildly trusted so cold workloads begin training.
	return p.pcConf.insert(sig, pcState{reuseConf: 8, patternConf: 8, sampleShift: sampleShift})
}

func bump(v *int8, d int8) {
	n := *v + d
	if n < 0 {
		n = 0
	}
	if n > 15 {
		n = 15
	}
	*v = n
}

// degree maps pattern confidence to prefetch degree (0..MaxDegree).
func (p *Prefetcher) degree(st *pcState) int {
	switch {
	case st.patternConf < 4:
		return 0
	case st.patternConf < 8:
		return 1
	case st.patternConf < 11:
		return 2
	case st.patternConf < 14:
		return p.cfg.MaxDegree - 1
	default:
		return p.cfg.MaxDegree
	}
}

// ---- history sampler -------------------------------------------------

func (p *Prefetcher) hsSet(trigger mem.Line) int {
	return int(mem.HashLine64(trigger)>>40) % hsSets
}

// hsProbeTrigger checks whether a trigger has a sampled correlation at the
// given distance: finding one means the correlation was reused before
// eviction (the reuse signal), and comparing its stored target against the
// actual access at that distance measures pattern stability. Distances must
// match — a lookahead (distance-2) sample validated against the distance-1
// successor would falsely demerit a perfectly stable stream.
func (p *Prefetcher) hsProbeTrigger(trigger, actualNext mem.Line, dist uint8) {
	set := &p.hs[p.hsSet(trigger)]
	for i := range set {
		e := &set[i]
		if e.valid && e.trigger == trigger && e.dist == dist {
			st := p.conf(e.pcSig)
			if !e.used {
				e.used = true
			}
			// Reused before eviction: reward strongly enough to outweigh
			// the unused evictions a finite sampler inevitably causes.
			bump(&st.reuseConf, 2)
			if e.target == actualNext {
				bump(&st.patternConf, 1)
				if st.sampleShift > 0 {
					st.sampleShift--
				}
				p.clock++
				e.lru = p.clock
			} else {
				// Proven unstable: one demerit, then stop sampling this
				// trigger — a hot trigger probed on every recurrence would
				// otherwise outvote every stable correlation the PC has.
				bump(&st.patternConf, -1)
				e.valid = false
			}
			return
		}
	}
	// Second chance: a reordered reuse still deserves partial credit.
	for i := range p.scs {
		e := &p.scs[i]
		if e.valid && e.trigger == trigger {
			bump(&p.conf(e.pcSig).reuseConf, 1)
			e.valid = false
			return
		}
	}
}

// hsInsert samples a correlation into the history sampler, demoting the
// owner of any unused victim and giving the victim a second chance.
func (p *Prefetcher) hsInsert(trigger, target mem.Line, pcSig uint32, dist uint8) {
	set := &p.hs[p.hsSet(trigger)]
	victim := 0
	for i := range set {
		e := &set[i]
		if e.valid && e.trigger == trigger && e.dist == dist {
			e.target = target
			e.pcSig = pcSig
			return
		}
		if !e.valid {
			victim = i
			break
		}
		if e.lru < set[victim].lru {
			victim = i
		}
	}
	v := &set[victim]
	if v.valid && !v.used {
		vs := p.conf(v.pcSig)
		bump(&vs.reuseConf, -1)
		// Sample less often so future samples survive to their reuse.
		if vs.sampleShift < 12 {
			vs.sampleShift++
		}
		p.scs[p.scsNext] = scsEntry{valid: true, trigger: v.trigger, pcSig: v.pcSig}
		p.scsNext = (p.scsNext + 1) % scsSize
	}
	p.clock++
	*v = hsEntry{valid: true, trigger: trigger, target: target, pcSig: pcSig, dist: dist, lru: p.clock}
}

// ---- metadata reuse buffer --------------------------------------------

func (p *Prefetcher) mrbBucket(trigger mem.Line) *int32 {
	return &p.mrbHead[uint64(trigger)*0x9e3779b97f4a7c15>>32&uint64(len(p.mrbHead)-1)]
}

// mrbLookup returns trigger's entry, now the most recently used, or nil.
func (p *Prefetcher) mrbLookup(trigger mem.Line) *mrbEntry {
	for i := *p.mrbBucket(trigger); i != 0; i = p.mrb[i].next {
		if e := &p.mrb[i]; e.trigger == trigger {
			p.mrbTouch(i)
			return e
		}
	}
	return nil
}

// mrbTouch moves slot i to the recent end of the list.
func (p *Prefetcher) mrbTouch(i int32) {
	m, e := p.mrb, &p.mrb[i]
	m[e.newer].older, m[e.older].newer = e.older, e.newer
	e.newer, e.older = 0, m[0].older
	m[e.older].newer, m[0].older = i, i
}

// mrbInsert caches trigger's entry, over the least recently used if full. e is
// what the caller's mrbLookup(trigger) just returned: the entry to update, or
// nil when trigger is not cached.
func (p *Prefetcher) mrbInsert(e *mrbEntry, trigger, target mem.Line, conf bool) *mrbEntry {
	if e == nil {
		i := int32(len(p.mrb))
		if len(p.mrb) < cap(p.mrb) {
			p.mrb = append(p.mrb, mrbEntry{newer: i, older: i}) // linked to itself
		} else {
			i = p.mrb[0].newer // the victim leaves its bucket's chain
			l := p.mrbBucket(p.mrb[i].trigger)
			for *l != i {
				l = &p.mrb[*l].next
			}
			*l = p.mrb[i].next
		}
		e = &p.mrb[i]
		b := p.mrbBucket(trigger)
		e.trigger, e.next, *b = trigger, *b, i
		p.mrbTouch(i)
	}
	e.target, e.conf = target, conf
	return e
}

// ---- main operation ----------------------------------------------------

// Train implements prefetch.Prefetcher. The simulator calls it on L2 misses
// and prefetch hits.
func (p *Prefetcher) Train(ev prefetch.Event, out []prefetch.Request) []prefetch.Request {
	line := ev.Line()
	pcSig := uint32(mem.HashPC(ev.PC, 24))
	idx := mem.HashPC(ev.PC, 16) % tuSize
	tu := &p.tu[idx]
	st := p.conf(pcSig)

	if !tu.valid || tu.tag != pcSig {
		*tu = tuEntry{tag: pcSig, last0: line, valid: true, issued: prefetch.ResetIssued(tu.issued)}
		p.maybeResize()
		return out
	}

	// Lookahead (distance-2 correlation) engages with hysteresis so the
	// metadata store is not churned by mode flapping.
	dist := uint8(1)
	trigger := tu.last0
	if tu.haveLast1 && st.lookahead() {
		trigger = tu.last1
		dist = 2
	}

	// Reuse/pattern measurement: did a sampled correlation for this
	// trigger survive to be used, and does its target still hold? Probe
	// at both distances so samples validate against the successor they
	// actually recorded.
	p.hsProbeTrigger(tu.last0, line, 1)
	if tu.haveLast1 {
		p.hsProbeTrigger(tu.last1, line, 2)
	}

	if trigger != line {
		// Sample into the HS at the PC's adaptive period.
		st.sampleCtr++
		if st.sampleCtr >= 1<<st.sampleShift {
			st.sampleCtr = 0
			p.hsInsert(trigger, line, pcSig, dist)
		}

		// Store the correlation only for PCs whose metadata gets reused
		// — this is the bypass that protects mcf's scans.
		if st.reuseConf >= reuseThreshold {
			if e := p.mrbLookup(trigger); e == nil || e.target != line {
				p.insTarget[0] = line
				_, conf := p.store.Insert(ev.Now, ev.PC, meta.Entry{
					Trigger: trigger, Targets: p.insTarget[:],
				})
				p.mrbInsert(e, trigger, line, conf)
			}
			if p.cfg.FixedBytes == 0 {
				p.part.ObserveTrigger(p.store.LogicalSetOf(trigger), trigger)
			}
		}
	}

	// Prefetch chain: follow correlations until the PC's degree of new
	// prefetches is met, paying a metadata read for every MRB miss.
	// Recently issued lines are skipped without spending degree so the
	// chain runs ahead of the demand stream.
	deg := p.degree(st)
	cur := line
	var delay uint64
	issued := 0
	for hops := 0; issued < deg && hops < deg+8; hops++ {
		m := p.mrbLookup(cur)
		if m != nil {
			p.MRBHits++
		} else {
			hit, found, lat := p.store.Lookup(ev.Now+delay, ev.PC, cur)
			if !found {
				break
			}
			delay += lat
			m = p.mrbInsert(nil, cur, hit.First(), hit.Conf())
		}
		target, conf := m.target, m.conf
		if !tu.issued.Has(target) {
			out = append(out, prefetch.Request{Addr: mem.AddrOf(target), Delay: delay})
			tu.issued.Mark(target)
			issued++
		}
		if !conf && hops > 0 {
			// The entry format's confidence bit: an unconfirmed
			// correlation ends the chain rather than steering it onto
			// some other stream.
			break
		}
		cur = target
	}

	tu.last1, tu.haveLast1 = tu.last0, true
	tu.last0 = line
	p.maybeResize()
	return out
}

// maybeResize lets the dynamic partitioner act at epoch boundaries,
// triggering Triangel's costly metadata rearrangement on changes.
func (p *Prefetcher) maybeResize() {
	if p.cfg.FixedBytes > 0 {
		return
	}
	if size, changed := p.part.Tick(); changed {
		p.store.Resize(size)
	}
}
