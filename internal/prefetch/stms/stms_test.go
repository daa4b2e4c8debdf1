package stms

import (
	"math/rand"
	"testing"

	"streamline/internal/mem"
	"streamline/internal/prefetch"
)

// fakeDRAM counts accesses with a fixed latency.
type fakeDRAM struct {
	reads, writes uint64
}

func (d *fakeDRAM) Access(_ uint64, _ mem.Line, write bool) uint64 {
	if write {
		d.writes++
		return 0
	}
	d.reads++
	return 100
}

func (d *fakeDRAM) Write(_ uint64, _ mem.Line) { d.writes++ }

func drive(p *Prefetcher, lines []mem.Line) []prefetch.Request {
	var all, buf []prefetch.Request
	for i, l := range lines {
		buf = p.Train(prefetch.Event{Now: uint64(i * 30), PC: 7, Addr: mem.AddrOf(l)}, buf[:0])
		all = append(all, buf...)
	}
	return all
}

func lap(n int, seed int64) []mem.Line {
	rng := rand.New(rand.NewSource(seed))
	out := make([]mem.Line, n)
	for i, v := range rng.Perm(n) {
		out[i] = mem.Line(4000 + v)
	}
	return out
}

func laps(l []mem.Line, n int) []mem.Line {
	var out []mem.Line
	for i := 0; i < n; i++ {
		out = append(out, l...)
	}
	return out
}

func TestLearnsRepeatingStream(t *testing.T) {
	d := &fakeDRAM{}
	p := New(d)
	l := lap(5000, 1)
	reqs := drive(p, laps(l, 4))
	if len(reqs) < len(l) {
		t.Fatalf("only %d prefetches over %d accesses", len(reqs), 4*len(l))
	}
	inStream := map[mem.Line]bool{}
	for _, x := range l {
		inStream[x] = true
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

func TestGeneratesOffchipTraffic(t *testing.T) {
	d := &fakeDRAM{}
	p := New(d)
	drive(p, laps(lap(3000, 2), 3))
	if p.Stats.OffchipTraffic() == 0 {
		t.Fatal("no off-chip metadata traffic recorded")
	}
	if p.Stats.GHBWrites == 0 || p.Stats.GHBReads == 0 {
		t.Errorf("GHB traffic missing: %+v", p.Stats)
	}
	if d.reads == 0 || d.writes == 0 {
		t.Error("fake DRAM saw no metadata accesses")
	}
}

func TestWriteSamplingAmortizes(t *testing.T) {
	// One in samplePeriod history appends pays a GHB write.
	d := &fakeDRAM{}
	p := New(d)
	n := 8000
	drive(p, lap(n, 3))
	if p.Stats.GHBWrites != uint64(n/samplePeriod) {
		t.Errorf("GHB writes %d for %d events, want %d", p.Stats.GHBWrites, n, n/samplePeriod)
	}
}

func TestIndexCacheReducesIndexReads(t *testing.T) {
	d := &fakeDRAM{}
	p := New(d)
	// A small hot set: the index cache should absorb most index lookups.
	var lines []mem.Line
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		lines = append(lines, mem.Line(100+rng.Intn(256)))
	}
	drive(p, lines)
	if p.Stats.IndexCacheHits == 0 {
		t.Fatal("index cache never hit")
	}
	if p.Stats.IndexReads > p.Stats.IndexCacheHits {
		t.Errorf("index reads %d exceed cache hits %d on a hot set",
			p.Stats.IndexReads, p.Stats.IndexCacheHits)
	}
}

func TestMetadataDelayPropagatesToRequests(t *testing.T) {
	d := &fakeDRAM{}
	p := New(d)
	l := lap(2000, 5)
	drive(p, l)
	reqs := drive(p, l)
	if len(reqs) == 0 {
		t.Fatal("no prefetches")
	}
	withDelay := 0
	for _, r := range reqs {
		if r.Delay > 0 {
			withDelay++
		}
	}
	if withDelay == 0 {
		t.Error("no request carries off-chip metadata latency")
	}
}
