package stms_test

import (
	"testing"

	"streamline/internal/dram"
	"streamline/internal/prefetch"
	"streamline/internal/prefetch/ptest"
	"streamline/internal/prefetch/stms"
)

func TestConformance(t *testing.T) {
	ptest.Exercise(t, func() prefetch.Prefetcher {
		return stms.New(dram.New(dram.ConfigFor(1)))
	})
}

// TestStatsMonotonicConsistent drives the prefetcher over the shared stream
// and checks its off-chip statistics never decrease and always satisfy the
// traffic identity (OffchipTraffic is exactly the sum of its parts).
func TestStatsMonotonicConsistent(t *testing.T) {
	p := stms.New(dram.New(dram.ConfigFor(1)))
	var prev stms.Stats
	var buf []prefetch.Request
	for i, ev := range ptest.Stream() {
		buf = p.Train(ev, buf[:0])
		st := p.Stats
		for _, c := range []struct {
			name      string
			prev, cur uint64
		}{
			{"IndexReads", prev.IndexReads, st.IndexReads},
			{"IndexWrites", prev.IndexWrites, st.IndexWrites},
			{"GHBReads", prev.GHBReads, st.GHBReads},
			{"GHBWrites", prev.GHBWrites, st.GHBWrites},
			{"IndexCacheHits", prev.IndexCacheHits, st.IndexCacheHits},
			{"StreamsFollowed", prev.StreamsFollowed, st.StreamsFollowed},
		} {
			if c.cur < c.prev {
				t.Fatalf("event %d: %s decreased %d -> %d", i, c.name, c.prev, c.cur)
			}
		}
		if got := st.OffchipTraffic(); got != st.IndexReads+st.IndexWrites+st.GHBReads+st.GHBWrites {
			t.Fatalf("event %d: OffchipTraffic %d inconsistent with parts", i, got)
		}
		prev = st
	}
	if prev.GHBWrites == 0 {
		t.Fatal("stream never wrote the GHB; the harness stream is not training the prefetcher")
	}
}

// TestOracle runs this engine's request stream against the differential
// cache oracle (see ptest.Oracle).
func TestOracle(t *testing.T) {
	ptest.Oracle(t, func() prefetch.Prefetcher {
		return stms.New(dram.New(dram.ConfigFor(1)))
	})
}
