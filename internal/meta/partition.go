package meta

import "streamline/internal/mem"

// This file implements the dynamic partitioning machinery of Section IV-D2.
// Both Triangel and Streamline size their metadata partition by comparing
// the utility of LLC capacity spent on data against capacity spent on
// metadata. The paper realizes this with set dueling; we realize the same
// objective with sampled stack-distance profiling (auxiliary tag
// directories), which evaluates every candidate size each epoch instead of
// dueling two at a time. The difference the paper studies is preserved
// exactly: Triangel weights every metadata hit equally, while Streamline's
// utility-aware partitioner scores metadata hits by the current global
// prefetch accuracy (its Section IV-E4 increment table).

// PartitionMode selects how candidate sizes translate into capacity.
type PartitionMode int

const (
	// WayMode models Triangel: k ways of every LLC set, k in 0..8.
	WayMode PartitionMode = iota
	// SetMode models Streamline: 8 ways of every 2^k-th set, with
	// filtered indexing (smaller sizes drop a fraction of triggers
	// rather than compressing them).
	SetMode
)

// PartitionerConfig parameterizes a Partitioner.
type PartitionerConfig struct {
	Mode PartitionMode
	// Sizes are the candidate partition sizes in bytes, ascending.
	Sizes []int
	// MaxBytes is the largest size (capacity reference).
	MaxBytes int
	// LLCWays is the host associativity (16).
	LLCWays int
	// MetaWaysPerSet is the ways a set-partitioned metadata set occupies.
	MetaWaysPerSet int
	// EntriesPerBlock converts blocks to metadata entries.
	EntriesPerBlock int
	// EpochAccesses is the decision period in observed accesses (2^15).
	EpochAccesses uint64
	// MetaWeight scores one trigger hit given current prefetch accuracy.
	// Triangel passes a constant function; Streamline passes the banded
	// table of Section IV-E4.
	MetaWeight func(accuracy float64) float64
}

const (
	// dataWeight scores one data hit.
	dataWeight = 16
	// sampleShift samples every 2^sampleShift-th set (every 64th).
	sampleShift = 6
)

// StreamlineMetaWeight is the paper's accuracy-banded increment table:
// 10-25% accuracy scores 2, 25-50% scores 3, 50-70% scores 4, 70-90%
// scores 6, 90-95% scores 7 and 95%+ scores 8 (data hits score 16).
func StreamlineMetaWeight(acc float64) float64 {
	switch {
	case acc < 0.10:
		return 1
	case acc < 0.25:
		return 2
	case acc < 0.50:
		return 3
	case acc < 0.70:
		return 4
	case acc < 0.90:
		return 6
	case acc < 0.95:
		return 7
	default:
		return 8
	}
}

// EqualMetaWeight is Triangel's equal scoring of data and metadata hits.
func EqualMetaWeight(float64) float64 { return 16 }

// lruStack is a small fully-associative LRU shadow directory that reports
// the stack distance of each access.
type lruStack struct {
	tags []uint64
	n    int
}

func newLRUStack(depth int) *lruStack { return &lruStack{tags: make([]uint64, depth)} }

// touch returns the stack position of tag (0 = MRU) or -1 on miss, then
// moves it to the top.
func (s *lruStack) touch(tag uint64) int {
	for i := 0; i < s.n; i++ {
		if s.tags[i] == tag {
			copy(s.tags[1:i+1], s.tags[:i])
			s.tags[0] = tag
			return i
		}
	}
	if s.n < len(s.tags) {
		s.n++
	}
	copy(s.tags[1:s.n], s.tags[:s.n-1])
	s.tags[0] = tag
	return -1
}

// Partitioner chooses the metadata partition size that maximizes weighted
// data-plus-metadata utility.
type Partitioner struct {
	cfg PartitionerConfig
	// shift is the set-sampling exponent: sampleShift outside tests.
	shift uint

	dataATD  map[int]*lruStack
	dataHist []uint64 // stack position histogram over LLC ways

	metaATD  map[int]*lruStack
	metaHist []uint64 // stack position histogram over metadata entries/set

	accesses uint64
	accuracy float64
	current  int // current size in bytes
}

// NewPartitioner returns a partitioner starting at the largest size.
func NewPartitioner(cfg PartitionerConfig) *Partitioner {
	if cfg.MetaWeight == nil {
		cfg.MetaWeight = EqualMetaWeight
	}
	if cfg.EpochAccesses == 0 {
		cfg.EpochAccesses = 1 << 15
	}
	if cfg.EntriesPerBlock == 0 {
		cfg.EntriesPerBlock = 12
	}
	maxEntries := cfg.maxEntriesPerSet()
	p := &Partitioner{
		cfg:      cfg,
		shift:    sampleShift,
		dataATD:  make(map[int]*lruStack),
		dataHist: make([]uint64, cfg.LLCWays+1),
		metaATD:  make(map[int]*lruStack),
		metaHist: make([]uint64, maxEntries+1),
		current:  cfg.Sizes[len(cfg.Sizes)-1],
	}
	return p
}

func (cfg PartitionerConfig) maxEntriesPerSet() int {
	if cfg.Mode == SetMode {
		return cfg.MetaWaysPerSet * cfg.EntriesPerBlock
	}
	// Way mode: up to MetaWaysPerSet blocks per LLC set.
	return cfg.MetaWaysPerSet * cfg.EntriesPerBlock
}

// Current returns the most recently decided size.
func (p *Partitioner) Current() int { return p.current }

// ObserveAccuracy records the latest epoch prefetch accuracy.
func (p *Partitioner) ObserveAccuracy(acc float64) { p.accuracy = acc }

// sampleKey returns the shadow directory for a sampled set, or nil.
func sampleKey(m map[int]*lruStack, set int, shift uint, depth int) *lruStack {
	if set&((1<<shift)-1) != 0 {
		return nil
	}
	s, ok := m[set]
	if !ok {
		s = newLRUStack(depth)
		m[set] = s
	}
	return s
}

// ObserveData feeds an LLC data access (set index and line) into the data
// shadow directory.
func (p *Partitioner) ObserveData(set int, line mem.Line) {
	st := sampleKey(p.dataATD, set, p.shift, p.cfg.LLCWays)
	if st == nil {
		return
	}
	pos := st.touch(uint64(line))
	if pos < 0 {
		pos = p.cfg.LLCWays
	}
	p.dataHist[pos]++
	p.accesses++
}

// ObserveTrigger feeds a metadata trigger access (by its logical metadata
// set) into the metadata shadow directory.
func (p *Partitioner) ObserveTrigger(logicalSet int, trigger mem.Line) {
	depth := p.cfg.maxEntriesPerSet()
	st := sampleKey(p.metaATD, logicalSet, p.shift, depth)
	if st == nil {
		return
	}
	pos := st.touch(mem.HashLine64(trigger))
	if pos < 0 {
		pos = depth
	}
	p.metaHist[pos]++
	p.accesses++
}

// dataHits estimates sampled data hits if each metadata-hosting set keeps
// dataWays ways for data, with fraction frac of sets hosting metadata.
func (p *Partitioner) dataHits(dataWays int, frac float64) float64 {
	var inFull, inReduced float64
	for pos, n := range p.dataHist {
		if pos < p.cfg.LLCWays {
			inFull += float64(n)
		}
		if pos < dataWays {
			inReduced += float64(n)
		}
	}
	return frac*inReduced + (1-frac)*inFull
}

// trigHits estimates sampled trigger hits at a partition size.
func (p *Partitioner) trigHits(size int) float64 {
	if size == 0 {
		return 0
	}
	var entries int
	var live float64
	switch p.cfg.Mode {
	case SetMode:
		// Filtered indexing: capacity per live set is constant; a size
		// fraction of triggers is live at all.
		entries = p.cfg.maxEntriesPerSet()
		live = float64(size) / float64(p.cfg.MaxBytes)
	default:
		// Way mode: all triggers live; smaller sizes shrink per-set
		// capacity.
		blocksPerSet := p.cfg.MetaWaysPerSet * size / p.cfg.MaxBytes
		entries = blocksPerSet * p.cfg.EntriesPerBlock
		live = 1
	}
	var hits float64
	for pos, n := range p.metaHist {
		if pos < entries {
			hits += float64(n)
		}
	}
	return hits * live
}

// metaWaysAt returns the per-set way cost of a size.
func (p *Partitioner) metaWaysAt(size int) (ways int, frac float64) {
	switch p.cfg.Mode {
	case SetMode:
		return p.cfg.MetaWaysPerSet, float64(size) / float64(p.cfg.MaxBytes)
	default:
		return p.cfg.MetaWaysPerSet * size / p.cfg.MaxBytes, 1
	}
}

// Tick advances the access clock and, at each epoch boundary, decides the
// best size. It returns (size, true) when a new decision was made.
func (p *Partitioner) Tick() (int, bool) {
	if p.accesses < p.cfg.EpochAccesses {
		return p.current, false
	}
	p.accesses = 0
	best, bestScore := p.cfg.Sizes[0], -1.0
	mw := p.cfg.MetaWeight(p.accuracy)
	for _, size := range p.cfg.Sizes {
		ways, frac := p.metaWaysAt(size)
		score := dataWeight*p.dataHits(p.cfg.LLCWays-ways, frac) +
			mw*p.trigHits(size)
		if score > bestScore {
			best, bestScore = size, score
		}
	}
	// Decay the histograms so the profile tracks phase changes.
	for i := range p.dataHist {
		p.dataHist[i] /= 2
	}
	for i := range p.metaHist {
		p.metaHist[i] /= 2
	}
	changed := best != p.current
	p.current = best
	return best, changed
}
