package triage_test

import (
	"testing"

	"streamline/internal/mem"
	"streamline/internal/meta"
	"streamline/internal/prefetch"
	"streamline/internal/prefetch/ptest"
	"streamline/internal/prefetch/triage"
)

func TestConformance(t *testing.T) {
	mkCfg := map[string]func() triage.Config{
		"default": triage.DefaultConfig,
		"small-budget": func() triage.Config {
			c := triage.DefaultConfig()
			c.MetaBytes = 32 << 10
			return c
		},
	}
	for name, mk := range mkCfg {
		mk := mk
		t.Run(name, func(t *testing.T) {
			ptest.Exercise(t, func() prefetch.Prefetcher {
				return triage.New(mk(), &meta.NullBridge{Sets: 256, Ways: 16, Latency: 20})
			})
		})
	}
}

// TestOracle runs this engine's request stream against the differential
// cache oracle (see ptest.Oracle).
func TestOracle(t *testing.T) {
	ptest.Oracle(t, func() prefetch.Prefetcher {
		return triage.New(triage.DefaultConfig(), &meta.NullBridge{Sets: 256, Ways: 16, Latency: 20})
	})
}

// TestTUWindowResetsOnPCChange checks the training unit's issued-line windows
// (see ptest.WindowReset).
func TestTUWindowResetsOnPCChange(t *testing.T) {
	p := triage.New(triage.DefaultConfig(), &meta.NullBridge{Sets: 256, Ways: 16, Latency: 20})
	a, b := ptest.SharedEntryPCs(triage.TUSize)
	claim := func(pc mem.PC) { p.Train(prefetch.Event{PC: pc, Addr: 1 << 26}, nil) }
	ptest.WindowReset(t, a, b, claim, p.Window)
}
