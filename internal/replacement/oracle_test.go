package replacement

import (
	"math/rand"
	"testing"

	"streamline/internal/mem"
)

// Figure 6's example: trigger B is unstable (its successor alternates), so
// MIN — which maximizes trigger hits — stores B's correlations yet covers
// nothing, while TP-MIN stores the stable (A, B) correlation and covers the
// repeats.
func TestFig6TPMINBeatsMINOnUnstableTrigger(t *testing.T) {
	const (
		A mem.Line = 1
		B mem.Line = 2
	)
	// Periodic stream A, B, k, B, k' where every k is fresh: trigger B is
	// hot (recurs soonest) but its successor never repeats, while (A -> B)
	// recurs every period. MIN pins B's entry and covers nothing; TP-MIN
	// keeps (A, B) and covers every period.
	var lines []mem.Line
	k := mem.Line(100)
	for period := 0; period < 10; period++ {
		lines = append(lines, A, B, k, B, k+1)
		k += 2
	}
	stream := CorrelationsOf(lines)

	minStats := ReplayOracle(stream, 1, MIN)
	tpStats := ReplayOracle(stream, 1, TPMIN)

	if tpStats.CorrelationHits <= minStats.CorrelationHits {
		t.Errorf("TP-MIN correlation hits (%d) should exceed MIN's (%d)",
			tpStats.CorrelationHits, minStats.CorrelationHits)
	}
	if tpStats.CorrelationHitRate() == 0 {
		t.Error("TP-MIN covered nothing on a stream with a stable correlation")
	}
}

func TestOracleStatsRates(t *testing.T) {
	s := OracleStats{Lookups: 10, TriggerHits: 5, CorrelationHits: 2}
	if s.TriggerHitRate() != 0.5 {
		t.Errorf("TriggerHitRate = %v, want 0.5", s.TriggerHitRate())
	}
	if s.CorrelationHitRate() != 0.2 {
		t.Errorf("CorrelationHitRate = %v, want 0.2", s.CorrelationHitRate())
	}
	var zero OracleStats
	if zero.TriggerHitRate() != 0 || zero.CorrelationHitRate() != 0 {
		t.Error("zero-lookup rates should be 0")
	}
}

func TestCorrelationsOf(t *testing.T) {
	lines := []mem.Line{1, 2, 3}
	got := CorrelationsOf(lines)
	want := []Correlation{{1, 2}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("got %d correlations, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("correlation %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if CorrelationsOf(nil) != nil || CorrelationsOf([]mem.Line{1}) != nil {
		t.Error("short streams should yield no correlations")
	}
}

func TestOracleUnlimitedCapacityHitsEverythingStable(t *testing.T) {
	// A perfectly repeating sequence with capacity >= footprint: after the
	// cold pass every correlation hits under both oracles.
	var lines []mem.Line
	for lap := 0; lap < 5; lap++ {
		for l := mem.Line(0); l < 100; l++ {
			lines = append(lines, l)
		}
	}
	stream := CorrelationsOf(lines)
	for _, kind := range []OracleKind{MIN, TPMIN} {
		s := ReplayOracle(stream, 1000, kind)
		cold := uint64(100) // one miss per distinct trigger
		if s.CorrelationHits < s.Lookups-cold {
			t.Errorf("%v: correlation hits %d < %d", kind, s.CorrelationHits, s.Lookups-cold)
		}
	}
}

func TestTPMINNeverBelowMINOnCorrelationHits(t *testing.T) {
	// TP-MIN optimizes correlation hits, so across random streams it should
	// never do materially worse than MIN on that metric.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		var lines []mem.Line
		// Mixed stable/unstable stream.
		perm := rng.Perm(64)
		for lap := 0; lap < 4; lap++ {
			for _, p := range perm {
				lines = append(lines, mem.Line(p))
				if rng.Intn(4) == 0 {
					lines = append(lines, mem.Line(64+rng.Intn(32)))
				}
			}
		}
		stream := CorrelationsOf(lines)
		m := ReplayOracle(stream, 16, MIN)
		tp := ReplayOracle(stream, 16, TPMIN)
		if float64(tp.CorrelationHits) < 0.9*float64(m.CorrelationHits) {
			t.Errorf("trial %d: TP-MIN correlation hits %d well below MIN %d",
				trial, tp.CorrelationHits, m.CorrelationHits)
		}
	}
}

func TestMINMaximizesTriggerHitsVsTPMIN(t *testing.T) {
	// Conversely MIN should win (or tie) on trigger hits: that is what it
	// optimizes.
	rng := rand.New(rand.NewSource(11))
	var lines []mem.Line
	for i := 0; i < 4000; i++ {
		if rng.Intn(2) == 0 {
			lines = append(lines, mem.Line(rng.Intn(32))) // hot triggers
		} else {
			lines = append(lines, mem.Line(100+rng.Intn(400)))
		}
	}
	stream := CorrelationsOf(lines)
	m := ReplayOracle(stream, 24, MIN)
	tp := ReplayOracle(stream, 24, TPMIN)
	if float64(m.TriggerHits) < 0.9*float64(tp.TriggerHits) {
		t.Errorf("MIN trigger hits %d well below TP-MIN %d", m.TriggerHits, tp.TriggerHits)
	}
}

func TestZeroCapacity(t *testing.T) {
	stream := CorrelationsOf([]mem.Line{1, 2, 3, 1, 2, 3})
	s := ReplayOracle(stream, 0, MIN)
	if s.TriggerHits != 0 || s.CorrelationHits != 0 {
		t.Error("zero-capacity store should never hit")
	}
	if s.Lookups != uint64(len(stream)) {
		t.Error("lookups should still be counted")
	}
}

// replayOracleScan is the replay ReplayOracle's heap replaced, kept as its
// reference: the same store, but every victim found by scanning the whole
// map. It shares no code with the fast path.
func replayOracleScan(stream []Correlation, capacity int, kind OracleKind) OracleStats {
	if capacity <= 0 {
		return OracleStats{Lookups: uint64(len(stream))}
	}
	nextUse := make([]int, len(stream))
	lastTrig := map[mem.Line]int{}
	lastCorr := map[Correlation]int{}
	for i := len(stream) - 1; i >= 0; i-- {
		n, ok := lastTrig[stream[i].Trigger]
		if kind == TPMIN {
			n, ok = lastCorr[stream[i]]
		}
		if !ok {
			n = oracleNever
		}
		nextUse[i] = n
		lastTrig[stream[i].Trigger] = i
		lastCorr[stream[i]] = i
	}

	type entry struct {
		target  mem.Line
		nextUse int
	}
	store := make(map[mem.Line]entry, capacity)
	var stats OracleStats
	for i, c := range stream {
		stats.Lookups++
		if e, ok := store[c.Trigger]; ok {
			stats.TriggerHits++
			if e.target == c.Target {
				stats.CorrelationHits++
			}
			store[c.Trigger] = entry{target: c.Target, nextUse: nextUse[i]}
			continue
		}
		if nextUse[i] == oracleNever {
			continue
		}
		if len(store) >= capacity {
			var victim mem.Line
			worst := -1
			for t, e := range store {
				if e.nextUse > worst || (e.nextUse == worst && t < victim) {
					worst = e.nextUse
					victim = t
				}
			}
			if worst <= nextUse[i] && worst != oracleNever {
				continue
			}
			delete(store, victim)
		}
		store[c.Trigger] = entry{target: c.Target, nextUse: nextUse[i]}
	}
	return stats
}

// TestReplayOracleMatchesScanReference replays random streams through the
// heap and the scan at capacities 1-64 under both oracles. The streams mix a
// hot set whose triggers are overwritten again and again (so TP-MIN leaves
// never-reused entries resident and the trigger tie-break decides), a stable
// loop, and fresh lines that never recur.
func TestReplayOracleMatchesScanReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		hot := 2 + rng.Intn(40)
		lines := make([]mem.Line, 600+rng.Intn(600))
		fresh := mem.Line(1 << 20)
		for i := range lines {
			switch rng.Intn(4) {
			case 0:
				lines[i] = mem.Line(rng.Intn(hot))
			case 1:
				lines[i] = fresh
				fresh++
			default:
				lines[i] = mem.Line(1000 + i%(hot*3))
			}
		}
		stream := CorrelationsOf(lines)
		for _, kind := range []OracleKind{MIN, TPMIN} {
			for _, capacity := range []int{1, 2, 3, 1 + rng.Intn(64), 64} {
				got := ReplayOracle(stream, capacity, kind)
				want := replayOracleScan(stream, capacity, kind)
				if got != want {
					t.Fatalf("seed %d, %v, capacity %d: heap replay %+v, scan reference %+v",
						seed, kind, capacity, got, want)
				}
			}
		}
	}
}
