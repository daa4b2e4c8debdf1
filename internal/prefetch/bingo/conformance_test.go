package bingo_test

import (
	"testing"

	"streamline/internal/prefetch"
	"streamline/internal/prefetch/bingo"
	"streamline/internal/prefetch/ptest"
)

func factory() prefetch.Prefetcher { return bingo.New() }

func TestConformance(t *testing.T) {
	t.Run("default", func(t *testing.T) { ptest.Exercise(t, factory) })
}

// TestOracle runs this engine's request stream against the differential
// cache oracle (see ptest.Oracle).
func TestOracle(t *testing.T) {
	ptest.Oracle(t, factory)
}

// TestLockstepWithReference drives Bingo and the map reference with the
// same events and compares the requests and trackers after every call and
// both histories every 1,024 calls and at the end.
func TestLockstepWithReference(t *testing.T) {
	p, ref := bingo.New(), bingo.NewRef()
	ptest.Lockstep{
		Engine: p.Train, Ref: ref.Train, Events: bingo.LockstepEvents(200_000),
		Step:   func(int) error { return bingo.SameTrackers(p, ref) },
		Tables: func(int) error { return bingo.SameHistories(p, ref) },
		Needs: []ptest.Need{
			ptest.AtLeast(1, "long-history predictions", &ref.LongHits),
			ptest.AtLeast(1, "short-history predictions", &ref.ShortHits),
			ptest.AtLeast(2, "long-history agings", &ref.Agings),
			ptest.AtLeast(1, "agings on a key already present", &ref.PresentAgings),
		},
	}.Run(t)
}

// TestTrainAllocatesNothing: a constructed Bingo commits footprints, ages
// its long history and replays predictions without allocating.
func TestTrainAllocatesNothing(t *testing.T) {
	ptest.TrainAllocatesNothing(t, factory, bingo.LockstepEvents(50_000), false)
}

// BenchmarkTrain trains one Bingo over a fixed 16,384-event slice of the
// lockstep stream, on which it replays footprints, cycled through.
func BenchmarkTrain(b *testing.B) { ptest.BenchmarkTrain(b, bingo.New(), bingo.LockstepEvents(1<<14)) }
