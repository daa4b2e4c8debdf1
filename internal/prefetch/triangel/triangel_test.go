package triangel

import (
	"math/rand"
	"testing"
	"unsafe"

	"streamline/internal/mem"
	"streamline/internal/meta"
	"streamline/internal/prefetch"
)

func testBridge() *meta.NullBridge { return &meta.NullBridge{Sets: 256, Ways: 16, Latency: 20} }

func newTest() *Prefetcher {
	cfg := DefaultConfig()
	cfg.MetaBytes = 128 << 10
	return New(cfg, testBridge())
}

func drive(p *Prefetcher, pc mem.PC, lines []mem.Line) []prefetch.Request {
	var all, buf []prefetch.Request
	for i, l := range lines {
		buf = p.Train(prefetch.Event{Now: uint64(i * 30), PC: pc, Addr: mem.AddrOf(l)}, buf[:0])
		all = append(all, buf...)
	}
	return all
}

func chaseLap(n int, seed int64) []mem.Line {
	rng := rand.New(rand.NewSource(seed))
	lap := make([]mem.Line, n)
	for i, v := range rng.Perm(n) {
		lap[i] = mem.Line(5000 + v)
	}
	return lap
}

func laps(lap []mem.Line, n int) []mem.Line {
	var out []mem.Line
	for i := 0; i < n; i++ {
		out = append(out, lap...)
	}
	return out
}

func TestLearnsStableChase(t *testing.T) {
	p := newTest()
	lap := chaseLap(6000, 1)
	reqs := drive(p, 7, laps(lap, 6))
	if len(reqs) < len(lap) {
		t.Fatalf("only %d prefetches over %d accesses", len(reqs), 6*len(lap))
	}
	inStream := map[mem.Line]bool{}
	for _, l := range lap {
		inStream[l] = true
	}
	good := 0
	for _, r := range reqs {
		if inStream[mem.LineOf(r.Addr)] {
			good++
		}
	}
	if frac := float64(good) / float64(len(reqs)); frac < 0.9 {
		t.Errorf("only %.0f%% of prefetches on-stream", frac*100)
	}
}

func TestConfidenceRisesOnStableStream(t *testing.T) {
	p := newTest()
	lap := chaseLap(4000, 2)
	drive(p, 7, laps(lap, 6))
	st := p.conf(uint32(mem.HashPC(7, 24)))
	if st.reuseConf < 10 {
		t.Errorf("reuseConf = %d after stable laps, want >= 10", st.reuseConf)
	}
	if st.patternConf < 10 {
		t.Errorf("patternConf = %d after stable laps, want >= 10", st.patternConf)
	}
}

func TestScanPCBypassed(t *testing.T) {
	// A pure scan: addresses never recur, so reuse confidence must fall
	// and the PC must stop inserting metadata (the mcf protection).
	p := newTest()
	var lines []mem.Line
	for i := 0; i < 60000; i++ {
		lines = append(lines, mem.Line(1_000_000+i))
	}
	drive(p, 9, lines)
	st := p.conf(uint32(mem.HashPC(9, 24)))
	if st.reuseConf >= reuseThreshold {
		t.Errorf("scan PC reuseConf = %d, want < %d (bypass)", st.reuseConf, reuseThreshold)
	}
	// Inserts must stop growing once confidence collapses: compare totals
	// in the second half against the first.
	p2 := newTest()
	drive(p2, 9, lines[:30000])
	firstHalf := p2.store.Stats.Inserts
	drive(p2, 9, lines[30000:])
	secondHalf := p2.store.Stats.Inserts - firstHalf
	if secondHalf*2 > firstHalf {
		t.Errorf("scan PC still inserting: %d then %d", firstHalf, secondHalf)
	}
}

func TestLookaheadEngagesWithHysteresis(t *testing.T) {
	p := newTest()
	lap := chaseLap(4000, 3)
	drive(p, 7, laps(lap, 6))
	st := p.conf(uint32(mem.HashPC(7, 24)))
	if !st.laMode {
		t.Error("lookahead not engaged on a highly stable stream")
	}
}

func TestMRBReducesMetadataReads(t *testing.T) {
	p := newTest()
	lap := chaseLap(4000, 4)
	drive(p, 7, laps(lap, 6))
	if p.MRBHits == 0 {
		t.Error("MRB never hit")
	}
}

func TestDynamicResizeGeneratesRearrangeTraffic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MetaBytes = 128 << 10
	p := newPrefetcher(cfg, testBridge(), mrbSize, 4096)
	// Alternate phases of temporal-friendly and data-friendly behavior to
	// push the partitioner around.
	lap := chaseLap(6000, 5)
	drive(p, 7, laps(lap, 4))
	// Feed strong data utility so the partitioner shrinks the metadata.
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 300000; i++ {
		p.ObserveLLCData(rng.Intn(256)&^63, mem.Line(rng.Intn(128)))
		p.maybeResize()
	}
	if p.store.Stats.Resizes == 0 {
		t.Skip("partitioner never resized in this scenario")
	}
	if p.store.Stats.RearrangeReads+p.store.Stats.RearrangeWrites == 0 {
		t.Error("Triangel resized without rearrangement traffic (RUW must shuffle)")
	}
}

func TestFixedBytesPinsPartition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MetaBytes = 128 << 10
	cfg.FixedBytes = 32 << 10
	p := New(cfg, testBridge())
	drive(p, 7, laps(chaseLap(3000, 7), 4))
	if got := p.store.SizeBytes(); got != 32<<10 {
		t.Errorf("store size = %d, want pinned 32KB", got)
	}
	if p.store.Stats.Resizes != 1 { // the initial pin only
		t.Errorf("resizes = %d, want 1", p.store.Stats.Resizes)
	}
}

func TestInterfaces(t *testing.T) {
	p := newTest()
	var _ prefetch.Prefetcher = p
	var _ prefetch.MetaReporter = p
	var _ prefetch.LLCDataObserver = p
	if p.Name() != "triangel" {
		t.Errorf("name = %q", p.Name())
	}
}

func TestIssuedRingPreventsDuplicates(t *testing.T) {
	p := newTest()
	lap := chaseLap(3000, 8)
	reqs := drive(p, 7, laps(lap, 6))
	seen := map[mem.Addr]int{}
	dups := 0
	for _, r := range reqs {
		seen[r.Addr]++
	}
	for _, n := range seen {
		if n > 8 { // issued once per lap-ish is fine; tight loops are not
			dups++
		}
	}
	if dups > len(seen)/10 {
		t.Errorf("%d of %d addresses re-issued excessively", dups, len(seen))
	}
}

// scanMRB is the metadata reuse buffer as it was before it was indexed: a
// scan for the trigger, and on a miss the first free slot, else the slot with
// the oldest stamp. Test-only reference, sharing no code with the real one.
type scanMRB struct {
	e     []scanMRBEntry
	clock uint64
}

type scanMRBEntry struct {
	valid, conf     bool
	trigger, target mem.Line
	lru             uint64
}

func (m *scanMRB) lookup(trigger mem.Line) (mem.Line, bool, bool) {
	for i := range m.e {
		if e := &m.e[i]; e.valid && e.trigger == trigger {
			m.clock++
			e.lru = m.clock
			return e.target, e.conf, true
		}
	}
	return 0, false, false
}

func (m *scanMRB) insert(trigger, target mem.Line, conf bool) {
	victim := 0
	for i := range m.e {
		e := &m.e[i]
		if e.valid && e.trigger == trigger {
			m.clock++
			e.target, e.conf, e.lru = target, conf, m.clock
			return
		}
		if !e.valid {
			victim = i
			break
		}
		if e.lru < m.e[victim].lru {
			victim = i
		}
	}
	m.clock++
	e := &m.e[victim]
	e.valid, e.conf, e.trigger, e.target, e.lru = true, conf, trigger, target, m.clock
}

// TestMRBMatchesScanReference drives the indexed MRB and the scanned one with
// the same random lookups and inserts and compares every answer — at the
// default size, at sizes that are not powers of two, and at one entry. The
// trigger range is a few times the capacity, so hits, updates in place and
// LRU replacements all occur, and bucket chains hold several entries.
func TestMRBMatchesScanReference(t *testing.T) {
	for _, size := range []int{1, 2, 3, 31, 32, 33, 100, 300} {
		cfg := DefaultConfig()
		cfg.MetaBytes = 128 << 10
		p := newPrefetcher(cfg, testBridge(), size, resizeEpoch)
		ref := &scanMRB{e: make([]scanMRBEntry, size)}
		rng := rand.New(rand.NewSource(int64(size)))
		for i := 0; i < 200_000; i++ {
			trigger := mem.Line(rng.Intn(3*size+2)) << uint(rng.Intn(2)*20)
			if rng.Intn(3) == 0 {
				target, conf := mem.Line(rng.Uint32()), rng.Intn(2) == 0
				p.mrbInsert(p.mrbLookup(trigger), trigger, target, conf)
				ref.insert(trigger, target, conf)
				continue
			}
			wantTarget, wantConf, wantHit := ref.lookup(trigger)
			e := p.mrbLookup(trigger)
			if (e != nil) != wantHit || (wantHit && (e.target != wantTarget || e.conf != wantConf)) {
				t.Fatalf("size %d op %d: lookup(%#x) = %+v, reference (%#x, %v, hit %v)",
					size, i, trigger, e, wantTarget, wantConf, wantHit)
			}
		}
		if len(p.mrb) != size+1 {
			t.Errorf("size %d: buffer holds %d entries beside the sentinel", size, len(p.mrb)-1)
		}
	}
}

// TestTUEntrySize guards the training unit's host budget: each entry holds
// a pointer to its issued-line window, not the 648 B window itself.
func TestTUEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(tuEntry{}); got > 40 {
		t.Errorf("tuEntry is %d B, budget 40", got)
	}
}
