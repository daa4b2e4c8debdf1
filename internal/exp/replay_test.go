package exp

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"streamline/internal/cache"
	"streamline/internal/dram"
	"streamline/internal/exp/store"
	"streamline/internal/meta"
	"streamline/internal/sim"
)

// planDecode runs the replay plan alone over data into a zero result.
func planDecode(data []byte) (sim.Result, bool) {
	var res sim.Result
	rest, ok := resultPlan().decode(data, reflect.ValueOf(&res).Elem())
	return res, ok && len(rest) == 0
}

// replaySims are a one-core and a four-core micro simulation with every
// prefetch engine attached.
func replaySims() []Sim {
	_, _, str := standardArms()
	return []Sim{
		{str, Unit{Mix: []string{"sphinx06"}, Cores: 1}},
		{str, Unit{Mix: []string{"sphinx06", "mcf06", "bfs", "libquantum06"}, Cores: 4}},
	}
}

// TestReplayPlanDecodesRealResults: the plan takes what json.Marshal writes
// for real results, so a resume never falls back on them, and decodes it to
// the result that was written.
func TestReplayPlanDecodesRealResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs micro-scale simulations")
	}
	r := NewRunner(Micro)
	for _, s := range replaySims() {
		e, _ := r.entry(s)
		r.run(e)
		if e.err != nil {
			t.Fatal(e.err)
		}
		payload, err := json.Marshal(e.res)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := planDecode(payload)
		if !ok {
			t.Fatalf("%s: the plan rejected json.Marshal's encoding", e.key)
		}
		if !reflect.DeepEqual(got, e.res) {
			t.Errorf("%s: plan decoded\n%+v\nwant\n%+v", e.key, got, e.res)
		}
	}
}

// oldCore is CoreResult as a binary before per-engine attribution wrote it:
// no Prefetchers field.
type oldCore struct {
	Instructions, Cycles uint64
	IPC                  float64
	L1D, L2              cache.Stats
	PrefetchesIssued     uint64
	Meta                 meta.Stats
}

// TestReplayFallbackDecodesOtherShapes: a stored payload the plan does not
// take — keys in another order, or a record from an older sim.Result shape —
// replays through json.Unmarshal exactly as the store-wide decoder did, both
// through a resumed runner and into a result that held another one.
func TestReplayFallbackDecodesOtherShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs micro-scale simulations")
	}
	r := NewRunner(Micro)
	var results []sim.Result
	for _, s := range replaySims() {
		e, _ := r.entry(s)
		r.run(e)
		if e.err != nil {
			t.Fatal(e.err)
		}
		results = append(results, e.res)
	}
	one, four := results[0], results[1]
	if len(one.Cores[0].Prefetchers) == 0 {
		t.Fatal("the one-core result has no per-engine attribution for an older shape to lack")
	}
	old := make([]oldCore, len(one.Cores))
	for i, c := range one.Cores {
		old[i] = oldCore{c.Instructions, c.Cycles, c.IPC, c.L1D, c.L2, c.PrefetchesIssued, c.Meta}
	}
	reordered, _ := json.Marshal(struct {
		DRAM  dram.Stats
		LLC   cache.Stats
		Cores []sim.CoreResult
	}{one.DRAM, one.LLC, one.Cores})
	older, _ := json.Marshal(struct {
		Cores []oldCore
		LLC   cache.Stats
		DRAM  dram.Stats
	}{old, one.LLC, one.DRAM})
	s := replaySims()[0]

	for name, payload := range map[string][]byte{"reordered": reordered, "older": older} {
		var want sim.Result
		if err := json.Unmarshal(payload, &want); err != nil {
			t.Fatal(err)
		}
		if _, ok := planDecode(payload); ok {
			t.Fatalf("%s: the plan took a payload json.Marshal did not write", name)
		}
		// Through a resumed runner, from a store holding only this payload.
		dir := t.TempDir()
		st, err := store.Create(dir, resumeManifest(Micro))
		if err != nil {
			t.Fatal(err)
		}
		rr := NewRunner(Micro)
		rr.Store = st
		if err := st.PutRaw(rr.storeKey(s.key()), s.key(), payload); err != nil {
			t.Fatal(err)
		}
		e, _ := rr.entry(s)
		rr.run(e)
		st.Close()
		if rr.ResumedJobs() != 1 || !reflect.DeepEqual(e.res, want) {
			t.Errorf("%s: replayed %d, result equal to json.Unmarshal's: %v", name,
				rr.ResumedJobs(), reflect.DeepEqual(e.res, want))
		}
		// Into a result that held the four-core one: the fallback must not
		// keep anything from it (older has no Prefetchers to overwrite it).
		res := four
		if err := decodeResult(payload, &res); err != nil || !reflect.DeepEqual(res, want) {
			t.Errorf("%s: decoding over a used result: %v, equal to json.Unmarshal's: %v", name,
				err, reflect.DeepEqual(res, want))
		}
	}
}

// TestReplayPlanRefusesUnknownShapes: building a plan for a type with a
// kind, field or tag sim.Result does not use panics instead of decoding it
// some other way than encoding/json would.
func TestReplayPlanRefusesUnknownShapes(t *testing.T) {
	for _, v := range []any{
		struct{ N int }{},
		struct {
			N uint64 `json:"n"`
		}{},
		struct{ n uint64 }{},
		struct{ M map[string]uint64 }{},
		struct{}{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("planFor(%T) did not panic", v)
				}
			}()
			planFor(reflect.TypeOf(v))
		}()
	}
}

// FuzzReplayDecode checks the replay plan against encoding/json:
//
//   - whenever the plan takes an input, json.Unmarshal into a zero
//     sim.Result takes it too and decodes the same result;
//   - the plan takes json.Marshal of a sim.Result filled at random (seeded
//     by the input) and decodes that result back.
//
// The seed corpus under testdata/fuzz/FuzzReplayDecode holds real one-core
// and four-core sweep payloads, a payload with "Prefetchers":null, one with
// a float in exponent form, one with reordered keys and one with whitespace.
func FuzzReplayDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, ok := planDecode(data); ok {
			var want sim.Result
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("the plan took what json.Unmarshal rejects (%v): %q", err, data)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("the plan and json.Unmarshal disagree on %q:\n%+v\n%+v", data, got, want)
			}
		}

		h := fnv.New64a()
		h.Write(data)
		var res sim.Result
		fillRandom(rand.New(rand.NewPCG(h.Sum64(), 0)), reflect.ValueOf(&res).Elem())
		enc, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := planDecode(enc)
		if !ok || !reflect.DeepEqual(got, res) {
			t.Fatalf("plan on json.Marshal's encoding: accepted %v, equal %v\n%s", ok, reflect.DeepEqual(got, res), enc)
		}
	})
}

// fillRandom sets every field under v: nil, empty and short slices, integers
// of every magnitude, floats that json.Marshal writes with and without an
// exponent, and strings it writes without escapes.
func fillRandom(rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			fillRandom(rng, v.Field(i))
		}
	case reflect.Array:
		for i := range v.Len() {
			fillRandom(rng, v.Index(i))
		}
	case reflect.Slice:
		if n := rng.IntN(4); n > 0 {
			v.Set(reflect.MakeSlice(v.Type(), n-1, n-1))
			for i := range n - 1 {
				fillRandom(rng, v.Index(i))
			}
		}
	case reflect.Uint64:
		v.SetUint(rng.Uint64() >> rng.IntN(65))
	case reflect.Float64:
		f := rng.NormFloat64() * math.Pow(10, float64(rng.IntN(80)-40))
		if rng.IntN(8) == 0 {
			f = 0
		}
		v.SetFloat(f)
	case reflect.String:
		alphabet := []rune("l12temporalX_-.é✓")
		s := make([]rune, rng.IntN(6))
		for i := range s {
			s[i] = alphabet[rng.IntN(len(alphabet))]
		}
		v.SetString(string(s))
	default:
		panic("fillRandom: unexpected kind " + v.Kind().String())
	}
}
