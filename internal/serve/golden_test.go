package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"streamline/internal/sim"
)

// TestOptionsMatchEngineTable pins the accepted option lists — the order
// error messages and -help lines print them in — and checks they name
// exactly the engine table's rows, so a tenth row cannot be half-wired.
func TestOptionsMatchEngineTable(t *testing.T) {
	for _, c := range []struct {
		slot      string
		got, want []string
	}{
		{"l1", L1Options, []string{"none", "stride", "berti"}},
		{"l2", L2Options, []string{"none", "ipcp", "bingo", "spp"}},
		{"temporal", TemporalOptions, []string{"none", "triage", "triangel", "streamline", "streamline-bypass", "stms"}},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s options = %v, want %v", c.slot, c.got, c.want)
		}
	}
	accepted := map[string]int{}
	for _, opts := range [][]string{L1Options, L2Options, TemporalOptions} {
		for _, o := range opts {
			if o != "none" && !strings.HasSuffix(o, bypassSuffix) {
				accepted[o]++
			}
		}
	}
	for _, e := range sim.Engines() {
		if accepted[e.Name] != 1 {
			t.Errorf("engine %q is accepted in %d option lists, want 1", e.Name, accepted[e.Name])
		}
		delete(accepted, e.Name)
	}
	for name := range accepted {
		t.Errorf("option %q is not in the engine table", name)
	}
}

// goldenSpecs pins Spec -> response bytes: the SHA-256 of
// json.Marshal(BuildResult(...)) for small specs that together build every
// engine-table row (and the bypass knob, and a multi-core attach). The digests
// were recorded at the commit before the engine table existed, so they prove
// the table builds each engine exactly the way the hand-written switches did.
// A digest only changes when simulated behaviour or the response document
// changes; update it deliberately, never to make a refactor pass.
var goldenSpecs = []struct {
	name   string
	spec   Spec
	digest string
}{
	{"stride+streamline",
		Spec{Workload: "sphinx06", L1: "stride", Temporal: "streamline"},
		"f538aa23297c872b72a43a797c9ae40518fd2f4a93287ac55bee20c59477ad5c"},
	{"berti+spp+triangel",
		Spec{Workload: "mcf06", L1: "berti", L2: "spp", Temporal: "triangel"},
		"c8d657a581631f38445bde269980f9636417f5d59e4be9f679c4b3ff9e9b06d4"},
	{"ipcp+triage",
		Spec{Workload: "bfs", L1: "none", L2: "ipcp", Temporal: "triage"},
		"02e1172ed0d1214e07a14aa1d259ac9c70f93e66f59bc4a84cb685457ec4f52f"},
	{"bingo+streamline-bypass",
		Spec{Workload: "mcf17", L1: "none", L2: "bingo", Temporal: "streamline-bypass"},
		"38681f46e5d3f5524ea4838589e5d7aafcd939d8d8c72b0905fa31b2b0c52316"},
	{"stms",
		Spec{Workload: "omnetpp06", Temporal: "stms"},
		"20f5a80fc7aa8b249a5b1ac6ad683899d27cab0de3892354f18271e44db457cb"},
	{"2-core",
		Spec{Workload: "pr", Temporal: "streamline", Cores: 2, Seed: 7},
		"bc6c887a78bc01178fe3a12d9d667845be784ee71a85721d62477586ee0b00c0"},
}

func TestSpecDigestGolden(t *testing.T) {
	for _, g := range goldenSpecs {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			sp := g.spec
			sp.Footprint, sp.Warmup, sp.Measure = 0.05, 20_000, 100_000
			sp.LLCSets, sp.MetaKB = 64, 16
			if err := sp.Normalize(); err != nil {
				t.Fatal(err)
			}
			cfg, err := sp.Config()
			if err != nil {
				t.Fatal(err)
			}
			sys, err := sp.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			body, err := json.Marshal(BuildResult(sp, sys.Run()))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(body)
			if got := hex.EncodeToString(sum[:]); got != g.digest {
				t.Errorf("spec %s: digest %s, want %s", sp.ID(), got, g.digest)
			}
		})
	}
}
