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
