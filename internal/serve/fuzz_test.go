package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"streamline/internal/audit"
)

// refID is the fmt form Spec.ID appends without fmt.
func refID(sp Spec) string {
	return fmt.Sprintf("%s|%s|%s|%s|x%d|fp%g|w%d|m%d|meta%d|llc%d|seed%d",
		sp.Workload, sp.L1, sp.L2, sp.Temporal, sp.Cores, sp.Footprint,
		sp.Warmup, sp.Measure, sp.MetaKB, sp.LLCSets, sp.Seed)
}

// refKey is the fmt.Fprintf form of store.Key, salted as Spec.Key salts it.
func refKey(id string) string {
	h := sha256.New()
	for _, p := range []string{"streamd-sim", FormatFingerprint, id} {
		fmt.Fprintf(h, "%d:%s|", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// FuzzRequestDecode feeds arbitrary bytes through the daemon's request
// decoder and checks its safety properties: it never panics, everything it
// accepts is a fully normalized spec whose identity is deterministic, and an
// accepted spec survives a marshal/decode round trip unchanged — the
// invariant the content-addressed cache rests on. Its ID and key equal their
// fmt reference forms (refID, refKey), and a server's request memo resolves
// the body twice to the same spec, ID and key.
//
// The seed corpus under testdata/fuzz/FuzzRequestDecode covers the
// interesting classes: a valid minimal request, a fully specified one, an
// unknown workload, negative cores, an oversized padded body, and truncated
// JSON.
func FuzzRequestDecode(f *testing.F) {
	f.Add([]byte(`{"workload":"sphinx06"}`))
	f.Add([]byte(tinyBody))
	f.Add([]byte(`{"workload":"nope"}`))
	f.Add([]byte(`{"workload":"sphinx06","cores":-3}`))
	f.Add([]byte(`{"workload":"sphinx06","l1":"` + string(bytes.Repeat([]byte{'a'}, 4096)) + `"}`))
	f.Add([]byte(`{"workload":"sph`))
	f.Add([]byte(`{"workload":"sphinx06"} {}`))
	f.Add([]byte(`{"workload":"sphinx06","footprint":1e-300}`))
	f.Add([]byte{})
	for _, fp := range []float64{1e-05, 0.1, 1.0 / 3, 1} {
		f.Add([]byte(`{"workload":"mcf06","footprint":` + strconv.FormatFloat(fp, 'g', -1, 64) + `}`))
	}
	f.Add([]byte(`{"workload":"sphinx06","seed":-9223372036854775808}`))
	f.Add([]byte(`{"workload":"sphinx06","warmup":` + strconv.Itoa(MaxInstructions-1) + `,"measure":1}`))

	srv := New(Config{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := DecodeRequestBytes(data)
		if err != nil {
			return // rejection is fine; not panicking is the property
		}
		// Accepted implies normalized: a second Normalize is a no-op.
		again := sp
		if err := again.Normalize(); err != nil {
			t.Fatalf("accepted spec fails re-normalization: %v\n%+v", err, sp)
		}
		if again != sp {
			t.Fatalf("accepted spec is not normalization-stable:\n got %+v\nwas %+v", again, sp)
		}
		// Identity is a deterministic SHA-256 content address.
		key := sp.Key()
		if raw, err := hex.DecodeString(key); err != nil || len(raw) != 32 {
			t.Fatalf("key %q is not a SHA-256 hex digest", key)
		}
		if sp.Key() != key {
			t.Fatal("key is not deterministic")
		}
		// Marshal/decode round trip preserves the spec and its address.
		enc, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("marshal accepted spec: %v", err)
		}
		rt, err := DecodeRequestBytes(enc)
		if err != nil {
			t.Fatalf("round-trip decode rejected an accepted spec: %v\n%s", err, enc)
		}
		if rt != sp || rt.Key() != key {
			t.Fatalf("round trip changed the spec:\n got %+v\nwas %+v", rt, sp)
		}
		// The appended ID and key are byte for byte their fmt forms.
		id := sp.ID()
		if want := refID(sp); id != want {
			t.Fatalf("ID %q, fmt form %q", id, want)
		}
		if want := refKey(id); key != want {
			t.Fatalf("key %s, fmt form %s", key, want)
		}
		// The memo resolves the body to the decoder's answer, twice.
		want := resolved{spec: sp, id: id, key: key}
		for i := 0; i < 2; i++ {
			got, err := srv.memo.resolve(data)
			if err != nil || got != want {
				t.Fatalf("resolution %d: %+v, %v; want %+v", i, got, err, want)
			}
		}
	})
}

// FuzzSpecBuilds holds Normalize to what it promises: a spec it accepts
// builds. Whenever Normalize accepts a spec, Config and NewSystem succeed and
// a 500 + 500 instruction audited run completes without a panic and with no
// audit violation, sim.Result.Laws included. The seeds cover every core count
// up to MaxCores, accepted and rejected, across the temporal arms, plus the
// L1 and L2 prefetchers and the smallest and largest LLC sets.
func FuzzSpecBuilds(f *testing.F) {
	temporals := []string{"none", "streamline", "triangel", "triage", "stms"}
	for cores := 1; cores <= MaxCores; cores++ {
		f.Add("mcf06", "stride", "none", temporals[cores%len(temporals)], cores, 0.01, 8, 16, int64(cores))
	}
	f.Add("pr", "berti", "spp", "streamline-bypass", 2, 0.02, 64, 64, int64(1))
	f.Add("sphinx06", "none", "bingo", "streamline", 1, 0.01, 16, MaxLLCSets, int64(3))
	f.Fuzz(func(t *testing.T, workload, l1, l2, temporal string, cores int, footprint float64, metaKB, llcSets int, seed int64) {
		sp := Spec{Workload: workload, L1: l1, L2: l2, Temporal: temporal, Cores: cores,
			Footprint: footprint, Warmup: 500, Measure: 500, MetaKB: metaKB, LLCSets: llcSets, Seed: seed}
		if sp.Normalize() != nil {
			return
		}
		cfg, err := sp.Config()
		if err != nil {
			t.Fatalf("Config of accepted spec %s: %v", sp.ID(), err)
		}
		a := audit.New(sp.Seed)
		cfg.Audit = a
		sys, err := sp.NewSystem(cfg)
		if err != nil {
			t.Fatalf("NewSystem of accepted spec %s: %v", sp.ID(), err)
		}
		sys.Run()
		for _, v := range a.Violations() {
			t.Errorf("%s: %v", sp.ID(), v)
		}
	})
}

// TestFuzzSeedCorpusCommitted pins the committed corpus so the fuzz smoke in
// the verify skill always starts from the interesting request classes.
func TestFuzzSeedCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzRequestDecode")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("seed corpus missing: %v", err)
	}
	if len(ents) < 5 {
		t.Fatalf("seed corpus has %d entries, want >= 5", len(ents))
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte("go test fuzz v1\n")) {
			t.Errorf("%s: not a go fuzz corpus file", e.Name())
		}
	}
}
