package core

import (
	"testing"

	"streamline/internal/mem"
	"streamline/internal/meta"
	"streamline/internal/prefetch"
)

func testBridge() *meta.NullBridge {
	return &meta.NullBridge{Sets: 2048, Ways: 16, Latency: 20}
}

// feed drives a line sequence through the prefetcher as L2 misses from one
// PC and returns all requests issued.
func feed(p *Prefetcher, pc mem.PC, lines []mem.Line) []prefetch.Request {
	var all []prefetch.Request
	var buf []prefetch.Request
	for i, l := range lines {
		buf = p.Train(prefetch.Event{Now: uint64(i * 10), PC: pc, Addr: mem.AddrOf(l)}, buf[:0])
		all = append(all, buf...)
	}
	return all
}

func seq(start, n int) []mem.Line {
	out := make([]mem.Line, n)
	for i := range out {
		out[i] = mem.Line(start + i*7) // stride 7 lines: distinct, nonsequential
	}
	return out
}

func TestStreamEntriesAreStoredAndPrefetched(t *testing.T) {
	p := New(DefaultOptions(), testBridge())
	lap := seq(1000, 64)
	feed(p, 1, lap) // lap 1: trains
	reqs := feed(p, 1, lap)
	if len(reqs) == 0 {
		t.Fatal("no prefetches on the second lap of a repeating stream")
	}
	// The prefetched addresses must be future lines of the stream.
	want := map[mem.Addr]bool{}
	for _, l := range lap {
		want[mem.AddrOf(l)] = true
	}
	wrong := 0
	for _, r := range reqs {
		if !want[r.Addr] {
			wrong++
		}
	}
	if wrong > len(reqs)/10 {
		t.Errorf("%d/%d prefetches outside the stream", wrong, len(reqs))
	}
}

func TestRepeatingStreamReachesFullDegreeCoverage(t *testing.T) {
	p := New(DefaultOptions(), testBridge())
	lap := seq(5000, 256)
	feed(p, 1, lap)
	reqs := feed(p, 1, lap)
	// With stream length 4 and degree 4, a stable stream should produce
	// roughly one prefetch per access.
	if len(reqs) < 150 {
		t.Errorf("only %d prefetches for 256 accesses on a stable stream", len(reqs))
	}
}

func TestCompletedStreamsCounted(t *testing.T) {
	p := New(DefaultOptions(), testBridge())
	feed(p, 1, seq(100, 41))
	// 41 accesses: trigger + 4 targets per entry, chained: entries complete
	// every 4 accesses after the first.
	if p.Stats.CompletedStreams != 10 {
		t.Errorf("CompletedStreams = %d, want 10", p.Stats.CompletedStreams)
	}
}

func TestAlignStreams(t *testing.T) {
	// Figure 3/4: old [A; B C D E], fresh [B; C D X Y]. Aligned keeps A's
	// trigger with the updated stream: [A; B C D X], consuming C, D, X.
	A, B, C, D, E, X, Y := mem.Line(1), mem.Line(2), mem.Line(3), mem.Line(4), mem.Line(5), mem.Line(6), mem.Line(7)
	old := meta.Entry{Trigger: A, Targets: []mem.Line{B, C, D, E}}
	fresh := meta.Entry{Trigger: B, Targets: []mem.Line{C, D, X, Y}}
	aligned, consumed, ok := alignStreams(old, 1, fresh, 4, nil)
	if !ok {
		t.Fatal("alignment failed")
	}
	if aligned.Trigger != A {
		t.Errorf("aligned trigger = %d, want A", aligned.Trigger)
	}
	want := []mem.Line{B, C, D, X}
	for i, w := range want {
		if aligned.Targets[i] != w {
			t.Errorf("aligned target %d = %d, want %d", i, aligned.Targets[i], w)
		}
	}
	if consumed != 3 {
		t.Errorf("consumed = %d, want 3 (Y is leftover)", consumed)
	}
}

func TestAlignStreamsDeepOverlap(t *testing.T) {
	// Fresh trigger matches deep in the old entry: [A; B C D E] + [D; E F
	// G H] at pos 3 -> [A; B C D E], consuming only E.
	old := meta.Entry{Trigger: 1, Targets: []mem.Line{2, 3, 4, 5}}
	fresh := meta.Entry{Trigger: 4, Targets: []mem.Line{5, 6, 7, 8}}
	aligned, consumed, ok := alignStreams(old, 3, fresh, 4, nil)
	if !ok {
		t.Fatal("alignment failed")
	}
	want := []mem.Line{2, 3, 4, 5}
	for i, w := range want {
		if aligned.Targets[i] != w {
			t.Errorf("target %d = %d, want %d", i, aligned.Targets[i], w)
		}
	}
	if consumed != 1 {
		t.Errorf("consumed = %d, want 1", consumed)
	}
}

func TestAlignmentDetectsOverlap(t *testing.T) {
	p := New(DefaultOptions(), testBridge())
	// Repeat a stream with a phase shift so completed entries overlap
	// buffered ones: lap 1 aligns nothing (cold), later laps find overlaps.
	lap := seq(9000, 40)
	for i := 0; i < 6; i++ {
		feed(p, 1, lap)
	}
	if p.Stats.AlignmentOpportunities == 0 {
		t.Skip("no overlap arose in this pattern") // structure-dependent
	}
	if p.Stats.Alignments == 0 {
		t.Error("overlaps detected but never aligned")
	}
}

func TestDisableAlignment(t *testing.T) {
	o := DefaultOptions()
	o.DisableAlignment = true
	p := New(o, testBridge())
	lap := seq(9000, 40)
	for i := 0; i < 6; i++ {
		feed(p, 1, lap)
	}
	if p.Stats.Alignments != 0 {
		t.Errorf("alignments = %d with alignment disabled", p.Stats.Alignments)
	}
}

func TestDegreeControlDropsUnstablePC(t *testing.T) {
	p := New(DefaultOptions(), testBridge())
	// Random-ish non-repeating lines: every prefetch attempt misses the
	// buffer and fetches (or fails); instability should drive degree to 1.
	var lines []mem.Line
	x := uint64(99991)
	for i := 0; i < 2000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		lines = append(lines, mem.Line(x>>20))
	}
	feed(p, 1, lines)
	tu := p.tuFor(1)
	if tu.degree != 1 {
		t.Errorf("degree on unstable PC = %d, want 1", tu.degree)
	}
}

func TestDegreeControlKeepsStablePC(t *testing.T) {
	p := New(DefaultOptions(), testBridge())
	lap := seq(3000, 512)
	for i := 0; i < 4; i++ {
		feed(p, 1, lap)
	}
	tu := p.tuFor(1)
	if tu.degree < 3 {
		t.Errorf("degree on stable PC = %d, want >= 3", tu.degree)
	}
}

func TestRealignmentRecoversFilteredTriggers(t *testing.T) {
	o := DefaultOptions()
	o.FixedBytes = o.MetaBytes / 4 // 75% of triggers filtered
	p := New(o, testBridge())
	lap := seq(40000, 512)
	for i := 0; i < 3; i++ {
		feed(p, 1, lap)
	}
	if p.Stats.Realignments == 0 {
		t.Error("no realignments at quarter partition size")
	}

	o2 := o
	o2.DisableRealignment = true
	p2 := New(o2, testBridge())
	for i := 0; i < 3; i++ {
		feed(p2, 1, lap)
	}
	if p2.Stats.Realignments != 0 {
		t.Error("realignments occurred while disabled")
	}
	// Realignment should rescue inserts that filtering would drop.
	if p.store.Stats.FilteredInserts >= p2.store.Stats.FilteredInserts {
		t.Errorf("realignment did not reduce filtered inserts: %d vs %d",
			p.store.Stats.FilteredInserts, p2.store.Stats.FilteredInserts)
	}
}

func TestMetaBufferReducesStoreReads(t *testing.T) {
	run := func(bufSize int) uint64 {
		o := DefaultOptions()
		o.MetaBufferSize = bufSize
		b := testBridge()
		p := New(o, b)
		lap := seq(7000, 256)
		for i := 0; i < 4; i++ {
			feed(p, 1, lap)
		}
		return p.store.Stats.Reads
	}
	with, without := run(3), run(0)
	if with >= without {
		t.Errorf("metadata buffer did not reduce store reads: %d vs %d", with, without)
	}
}

func TestStatsAlignmentRate(t *testing.T) {
	s := Stats{AlignmentOpportunities: 10, Alignments: 7}
	if s.AlignmentRate() != 0.7 {
		t.Errorf("AlignmentRate = %v", s.AlignmentRate())
	}
	if (Stats{}).AlignmentRate() != 0 {
		t.Error("zero-opportunity rate should be 0")
	}
}

func TestAccuracyConsumerAndObservers(t *testing.T) {
	p := New(DefaultOptions(), testBridge())
	// Interface compliance and no-crash smoke.
	var _ prefetch.AccuracyConsumer = p
	var _ prefetch.MetaReporter = p
	var _ prefetch.LLCDataObserver = p
	p.ObserveAccuracy(0.9)
	p.ObserveLLCData(5, 1234)
}

func TestTPMockingjayLearnsCorrelationReuse(t *testing.T) {
	// PC 1's correlation recurs (short reuse distance); PC 2's never do.
	// The reuse-distance predictor must separate them.
	pol := NewTPMockingjay(1, 8).(*tpMockingjay)
	stable := meta.EntryAccess{PC: 1, Trigger: 100, FirstTarget: 101}
	for i := 0; i < 400; i++ {
		pol.Fill(0, i%4, stable)
		scan := meta.EntryAccess{PC: 2, Trigger: mem.Line(1000 + i), FirstTarget: mem.Line(2000 + i)}
		pol.Fill(0, 4+i%4, scan)
	}
	stableRD := pol.rdp[pol.pcSig(1)]
	scanRD := pol.rdp[pol.pcSig(2)]
	if stableRD < 0 || scanRD < 0 {
		t.Fatalf("RDP untrained: stable=%d scan=%d", stableRD, scanRD)
	}
	if scanRD <= stableRD*4 {
		t.Errorf("scan RD (%d) not well above stable RD (%d)", scanRD, stableRD)
	}
}

func TestTPMockingjayRetainsStableCorrelationsInStore(t *testing.T) {
	// Behavioral version of Figure 13c: a store managed by TP-Mockingjay
	// should keep reused correlations alive under churn better than SRRIP.
	run := func(pol meta.EntryPolicyFactory) float64 {
		cfg := meta.StoreConfig{
			Format: meta.Stream, StreamLength: 4,
			Tagged: true, Filtered: true, SetPartitioned: true,
			MetaWaysPerSet: 8, MaxBytes: 64 << 10, // small: pressure
			Policy: pol,
		}
		st := meta.NewStore(cfg, testBridge())
		stable := make([]mem.Line, 600)
		for i := range stable {
			stable[i] = mem.Line(10_000 + i*3)
		}
		churn := mem.Line(5_000_000)
		hits, lookups := 0, 0
		for lap := 0; lap < 30; lap++ {
			for i, tr := range stable {
				if lap > 0 {
					lookups++
					if _, ok, _ := st.Lookup(0, 1, tr); ok {
						hits++
					}
				}
				st.Insert(0, 1, meta.Entry{Trigger: tr,
					Targets: []mem.Line{tr + 1, tr + 2, tr + 3, tr + 4}})
				if i%2 == 0 { // interleaved never-reused churn
					st.Insert(0, 2, meta.Entry{Trigger: churn,
						Targets: []mem.Line{churn + 1, churn + 2, churn + 3, churn + 4}})
					churn += 10
				}
			}
		}
		return float64(hits) / float64(lookups)
	}
	tp := run(NewTPMockingjay)
	sr := run(meta.NewEntrySRRIP)
	if tp <= sr {
		t.Errorf("TP-Mockingjay stable hit rate %.3f <= SRRIP %.3f", tp, sr)
	}
}

func TestUnoptIsWayPartitionedSRRIP(t *testing.T) {
	p := New(UnoptOptions(), testBridge())
	if p.store.SchemeName() != "RUS" && p.store.SchemeName() != "RUW" {
		t.Errorf("unopt scheme = %s, want rearranged untagged", p.store.SchemeName())
	}
	if p.store.Config().Format != meta.Stream {
		t.Error("unopt must keep the stream format")
	}
}

func TestDefaultSchemeIsFTS(t *testing.T) {
	p := New(DefaultOptions(), testBridge())
	if got := p.store.SchemeName(); got != "FTS" {
		t.Errorf("default scheme = %s, want FTS", got)
	}
}

func TestDynamicPartitionRespectsMinimumSets(t *testing.T) {
	o := DefaultOptions()
	p := newPrefetcher(o, testBridge(), 64) // decide quickly
	// Pure data pressure, no reusable triggers: the partitioner should
	// shrink toward 0, floored at MinSets worth of bytes.
	x := uint64(7)
	for i := 0; i < 20000; i++ {
		x = x*6364136223846793005 + 1
		p.ObserveLLCData(int(x%2048), mem.Line(x>>16))
		p.maybeResize()
	}
	minBytes := o.MinSets * 8 * mem.LineSize
	if got := p.store.SizeBytes(); got > o.MetaBytes/2 || got < minBytes {
		t.Errorf("partition = %d bytes under pure data pressure, want in [%d, %d]",
			got, minBytes, o.MetaBytes/2)
	}
}
