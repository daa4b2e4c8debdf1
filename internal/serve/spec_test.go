package serve

import (
	"encoding/hex"
	"math"
	"strings"
	"testing"
)

// TestNormalizeDefaults: the minimal request fills every documented default.
func TestNormalizeDefaults(t *testing.T) {
	sp := Spec{Workload: "sphinx06"}
	if err := sp.Normalize(); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	want := Spec{
		Workload: "sphinx06", L1: DefaultL1, L2: DefaultL2, Temporal: DefaultTemporal,
		Cores: DefaultCores, Footprint: DefaultFootprint,
		Warmup: DefaultWarmup, Measure: DefaultMeasure,
		MetaKB: DefaultMetaKB, LLCSets: DefaultLLCSets, Seed: DefaultSeed,
	}
	if sp != want {
		t.Errorf("defaults:\n got %+v\nwant %+v", sp, want)
	}
}

// TestNormalizeValidation: every knob rejects out-of-range values with an
// error naming the knob and (for enums) the allowed values.
func TestNormalizeValidation(t *testing.T) {
	valid := func() Spec {
		return Spec{Workload: "sphinx06", Footprint: 0.02, Warmup: 1000,
			Measure: 4000, LLCSets: 16, MetaKB: 8}
	}
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string
	}{
		{"missing workload", func(s *Spec) { s.Workload = "" }, "missing workload"},
		{"unknown workload", func(s *Spec) { s.Workload = "nope" }, `unknown workload "nope"`},
		{"unknown l1", func(s *Spec) { s.L1 = "ghb" }, "none, stride or berti"},
		{"unknown l2", func(s *Spec) { s.L2 = "ghb" }, "none, ipcp, bingo or spp"},
		{"unknown temporal", func(s *Spec) { s.Temporal = "markov" }, "streamline-bypass or stms"},
		{"negative cores", func(s *Spec) { s.Cores = -1 }, "cores must be between 1 and 16"},
		{"too many cores", func(s *Spec) { s.Cores = MaxCores + 1 }, "cores must be between"},
		{"negative footprint", func(s *Spec) { s.Footprint = -0.5 }, "footprint must be in (0, 1]"},
		{"footprint over one", func(s *Spec) { s.Footprint = 1.5 }, "footprint must be in (0, 1]"},
		{"NaN footprint", func(s *Spec) { s.Footprint = math.NaN() }, "footprint must be in (0, 1], got NaN"},
		{"instruction budget", func(s *Spec) { s.Warmup = MaxInstructions; s.Measure = 2 },
			"warmup+measure must not exceed"},
		{"metaKb too large", func(s *Spec) { s.MetaKB = MaxMetaKB + 1 }, "metaKb must be between"},
		{"llcSets not power of two", func(s *Spec) { s.LLCSets = 100 }, "power of two"},
		{"llcSets too small", func(s *Spec) { s.LLCSets = 8 }, "power of two between 16"},
		{"llcSets too large", func(s *Spec) { s.LLCSets = 2 * MaxLLCSets }, "power of two between 16"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := valid()
			tc.mutate(&sp)
			err := sp.Normalize()
			if err == nil {
				t.Fatalf("Normalize accepted %+v", sp)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestNormalizeIdempotent: normalizing twice changes nothing, so a decoded
// request and its marshaled round-trip share one identity.
func TestNormalizeIdempotent(t *testing.T) {
	sp := Spec{Workload: "sphinx06", Temporal: "streamline"}
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	again := sp
	if err := again.Normalize(); err != nil {
		t.Fatal(err)
	}
	if again != sp {
		t.Errorf("second Normalize changed the spec:\n got %+v\nwas %+v", again, sp)
	}
}

// TestSpecIdentity: equal configurations key identically; any knob change
// moves the content address.
func TestSpecIdentity(t *testing.T) {
	a := Spec{Workload: "sphinx06", Temporal: "streamline"}
	b := Spec{Workload: "sphinx06", Temporal: "streamline"}
	if err := a.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := b.Normalize(); err != nil {
		t.Fatal(err)
	}
	if a.ID() != b.ID() || a.Key() != b.Key() {
		t.Errorf("identical specs disagree: %q vs %q", a.ID(), b.ID())
	}
	if raw, err := hex.DecodeString(a.Key()); err != nil || len(raw) != 32 {
		t.Errorf("Key %q is not a SHA-256 hex digest", a.Key())
	}
	b.Seed = 7
	if a.Key() == b.Key() {
		t.Error("seed change did not move the content address")
	}
}

// TestSpecKeyGolden pins the content address of the minimal request, as the
// fmt-based ID and key computed it: a byte drift in Spec.ID or store.Key
// would orphan every record a daemon's store already holds.
func TestSpecKeyGolden(t *testing.T) {
	sp, err := DecodeRequestBytes([]byte(`{"workload":"sphinx06"}`))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sp.ID(), "sphinx06|stride|none|none|x1|fp0.1|w400000|m1200000|meta128|llc256|seed1"; got != want {
		t.Errorf("ID %q, want %q", got, want)
	}
	if got, want := sp.Key(), "98e295c2b40690fafffddd96bbc3b1a6d9dacfd2e1c3e3fa37fb79da83ac70f0"; got != want {
		t.Errorf("Key %s, want %s", got, want)
	}
}

// TestConfigMirrorsStreamsim: derived geometry follows the documented
// formulas and every enum value builds.
func TestConfigMirrorsStreamsim(t *testing.T) {
	sp := Spec{Workload: "sphinx06", LLCSets: 1024}
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	cfg, err := sp.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.LLC.Sets != 1024 || cfg.L2.Sets != 512 {
		t.Errorf("geometry: llc=%d l2=%d, want 1024/512", cfg.LLC.Sets, cfg.L2.Sets)
	}
	for _, l1 := range L1Options {
		for _, l2 := range L2Options {
			for _, tmp := range TemporalOptions {
				sp := Spec{Workload: "sphinx06", L1: l1, L2: l2, Temporal: tmp}
				if err := sp.Normalize(); err != nil {
					t.Fatalf("%s/%s/%s: %v", l1, l2, tmp, err)
				}
				if _, err := sp.Config(); err != nil {
					t.Errorf("Config(%s/%s/%s): %v", l1, l2, tmp, err)
				}
			}
		}
	}
}
