package ipcp_test

import (
	"testing"

	"streamline/internal/prefetch"
	"streamline/internal/prefetch/ipcp"
	"streamline/internal/prefetch/ptest"
)

func factory() prefetch.Prefetcher { return ipcp.New() }

func TestConformance(t *testing.T) {
	t.Run("default", func(t *testing.T) { ptest.Exercise(t, factory) })
}

// TestOracle runs this engine's request stream against the differential
// cache oracle (see ptest.Oracle).
func TestOracle(t *testing.T) {
	ptest.Oracle(t, factory)
}

// TestLockstepWithReference drives IPCP and the slice-table reference with
// the same events and compares the requests after every call and all the
// tables every 1,024 calls and at the end.
func TestLockstepWithReference(t *testing.T) {
	p, ref := ipcp.New(), ipcp.NewRef()
	ptest.Lockstep{
		Engine: p.Train, Ref: ref.Train, Events: ipcp.LockstepEvents(200_000),
		Tables: func(int) error { return ipcp.SameTables(p, ref) },
		Needs: []ptest.Need{
			ptest.AtLeast(1, "constant-stride issuing calls", &ref.CS),
			ptest.AtLeast(1, "complex-stride issuing calls", &ref.Cplx),
			ptest.AtLeast(1, "global-stream issuing calls", &ref.GS),
		},
	}.Run(t)
}

// TestTrainAllocatesNothing: a constructed IPCP trains and issues from all
// three classes without allocating.
func TestTrainAllocatesNothing(t *testing.T) {
	ptest.TrainAllocatesNothing(t, factory, ipcp.LockstepEvents(20_000), false)
}

// BenchmarkTrain trains one IPCP over a fixed 16,384-event slice of the
// lockstep stream, on which all three classes issue, cycled through.
func BenchmarkTrain(b *testing.B) { ptest.BenchmarkTrain(b, ipcp.New(), ipcp.LockstepEvents(1<<14)) }
