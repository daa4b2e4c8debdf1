package spp_test

import (
	"testing"

	"streamline/internal/mem"
	"streamline/internal/prefetch"
	"streamline/internal/prefetch/ptest"
	"streamline/internal/prefetch/spp"
)

func factory() prefetch.Prefetcher { return spp.New() }

func TestConformance(t *testing.T) {
	t.Run("default", func(t *testing.T) { ptest.Exercise(t, factory) })
}

// TestOracle runs this engine's request stream against the differential
// cache oracle (see ptest.Oracle).
func TestOracle(t *testing.T) {
	ptest.Oracle(t, factory)
}

// TestLockstepWithReference drives the table-backed SPP-PPF and the map and
// whole-ring reference with the same events and compares, after every call,
// the requests, the perceptron weights, the issued ring and the trackers,
// and checks the ring's line index; every 1,024 calls and at the end it
// compares the whole pattern table.
func TestLockstepWithReference(t *testing.T) {
	p, ref := spp.New(), spp.NewRef()
	ptest.Lockstep{
		Engine: p.Train, Ref: ref.Train, Events: spp.LockstepEvents(200_000),
		Step:   func(int) error { return spp.SameState(p, ref) },
		Tables: func(int) error { return spp.SamePatterns(p, ref) },
		Needs: []ptest.Need{
			ptest.AtLeast(1<<12, "signatures trained", &ref.Signatures),
			ptest.AtLeast(1, "pattern totals halved", &ref.Halvings),
			ptest.AtLeast(2, "most ring records one line confirmed at once", &ref.MaxConfirms),
			ptest.AtLeast(5*256, "ring writes (five laps)", &ref.Remembered),
		},
	}.Run(t)
}

// TestTrainAllocatesNothing: a constructed SPP-PPF trains new signatures,
// confirms prefetches and overwrites its ring without allocating.
func TestTrainAllocatesNothing(t *testing.T) {
	ptest.TrainAllocatesNothing(t, factory, spp.LockstepEvents(20_000), false)
}

// BenchmarkTrain trains one SPP-PPF over a fixed mix of eight strided
// streams, each under its own PC and some crossing pages backwards,
// interleaved in turn and cycled through.
func BenchmarkTrain(b *testing.B) {
	strides := []int{1, 2, 3, 4, -1, -2, 5, 7}
	evs := make([]prefetch.Event, 1<<14)
	for i := range evs {
		s := i % len(strides)
		line := mem.Line(1<<20 + s<<16 + i/len(strides)*strides[s])
		evs[i] = prefetch.Event{Now: uint64(i), PC: mem.PC(0x400000 + s*8), Addr: mem.AddrOf(line)}
	}
	ptest.BenchmarkTrain(b, spp.New(), evs)
}
