package core_test

import (
	"testing"

	"streamline/internal/core"
	"streamline/internal/meta"
	"streamline/internal/prefetch"
	"streamline/internal/prefetch/ptest"
)

// The streamline core prefetcher runs the same shared conformance harness
// as every other engine in the repository (the other eight live in their
// own packages under internal/prefetch).

func confFactory() prefetch.Prefetcher {
	return core.New(core.DefaultOptions(), &meta.NullBridge{Sets: 256, Ways: 16, Latency: 20})
}

func TestConformance(t *testing.T) {
	ptest.Exercise(t, confFactory)
}

// TestOracle runs this engine's request stream against the differential
// cache oracle (see ptest.Oracle).
func TestOracle(t *testing.T) {
	ptest.Oracle(t, confFactory)
}

// TestTUWindowResetsOnPCChange checks the training unit's issued-line windows
// (see ptest.WindowReset).
func TestTUWindowResetsOnPCChange(t *testing.T) {
	p := core.New(core.DefaultOptions(), &meta.NullBridge{Sets: 256, Ways: 16, Latency: 20})
	a, b := ptest.SharedEntryPCs(core.TUSize)
	ptest.WindowReset(t, a, b, p.Claim, p.Window)
}
