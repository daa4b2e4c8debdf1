package meta

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"

	"streamline/internal/mem"
)

// storeDigestOps is the length of the operation sequence behind each row of
// testdata/store_digests.txt.
const storeDigestOps = 80_000

// digestSchemes are the partitioning configurations the golden file covers:
// the eight schemes of Table I plus the hybrid and skewed variants of FTS.
func digestSchemes() map[string]StoreConfig {
	out := map[string]StoreConfig{}
	for i, name := range []string{"RUW", "RUS", "RTW", "RTS", "FUW", "FUS", "FTW", "FTS"} {
		out[name] = StoreConfig{Filtered: i&4 != 0, Tagged: i&2 != 0, SetPartitioned: i&1 != 0}
	}
	fts := out["FTS"]
	fts.Hybrid = true
	out["FTS-hybrid"] = fts
	fts.Hybrid, fts.Skewed = false, true
	out["FTS-skewed"] = fts
	return out
}

var digestFormats = map[string]Format{
	"pairwise":            Pairwise,
	"pairwise-compressed": PairwiseCompressed,
	"stream":              Stream,
}

// storeDigest drives a store built from cfg through a seeded sequence of
// Lookup, Insert, WouldFilter and Resize calls and returns the SHA-256 of
// every value the store returned, followed by its final Stats, size,
// occupancy, bridge traffic and sorted entry dump. Only the exported surface
// is used, so the digest is independent of the store's memory layout. Odd
// seeds run entry-LRU, even seeds entry-SRRIP.
func storeDigest(cfg StoreConfig, seed int64) string {
	cfg.MetaWaysPerSet = 8
	cfg.MaxBytes = 64 << 10
	if cfg.Format == Stream {
		cfg.StreamLength = 4
	}
	if seed%2 == 0 {
		cfg.Policy = NewEntrySRRIP
	}
	bridge := &NullBridge{Sets: 256, Ways: 16, Latency: 20}
	s := NewStore(cfg, bridge)
	k := s.StreamLength()

	h := sha256.New()
	rng := rand.New(rand.NewSource(seed))
	// A bounded trigger pool, larger than any format's capacity and with a
	// hot tenth drawing half the operations, makes hits, updates,
	// confirmations, evictions, trigger-hash aliases and partial-tag aliases
	// all frequent.
	pool := make([]mem.Line, 20_000)
	for i := range pool {
		pool[i] = mem.Line(rng.Uint64() >> 24)
	}
	targets := make([]mem.Line, 0, k+1)
	now := uint64(0)
	for op := 0; op < storeDigestOps; op++ {
		now += uint64(rng.Intn(40))
		t := pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			t = pool[rng.Intn(len(pool)/10)]
		}
		pc := mem.PC(0x400000 + 8*rng.Intn(64))
		switch r := rng.Intn(10_000); {
		case r < 4500:
			// One to k+1 targets (the store truncates to k); the low bit of
			// the variant flips about a third of the time so re-inserts both
			// confirm and retarget.
			variant := mem.Line(0)
			if rng.Intn(3) == 0 {
				variant = 1
			}
			targets = targets[:0]
			for i, n := 0, 1+rng.Intn(k+1); i < n; i++ {
				targets = append(targets, t+mem.Line(i+1)+variant)
			}
			lat, conf := s.Insert(now, pc, Entry{Trigger: t, Targets: targets})
			fmt.Fprintf(h, "I %d %v\n", lat, conf)
		case r < 8800:
			e, ok, lat := s.Lookup(now, pc, t)
			fmt.Fprintf(h, "L %d %v %v %v %d\n", e.Trigger, e.Targets, e.Conf, ok, lat)
		case r < 9995:
			fmt.Fprintf(h, "W %v\n", s.WouldFilter(t))
		default:
			// About 40 resizes per sequence, to eighths of the maximum (zero
			// and above-maximum included).
			moved := s.Resize(cfg.MaxBytes / 8 * rng.Intn(10))
			fmt.Fprintf(h, "R %d %d\n", moved, s.SizeBytes())
		}
	}
	fmt.Fprintf(h, "stats %+v size %d occ %d bridge %d/%d\n",
		s.Stats, s.SizeBytes(), s.Occupancy(), bridge.Reads, bridge.Writes)
	dump := s.DumpEntries()
	lines := make([]string, len(dump))
	for i, e := range dump {
		lines[i] = fmt.Sprintf("%d %v", e.Trigger, e.Targets)
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStoreDigestGolden pins the store's observable behaviour for every
// partitioning scheme and entry format. testdata/store_digests.txt was
// generated from the slice-of-slices store that preceded the flat set-major
// layout; a row moves only when the store's decisions change, which moves
// simulated statistics with it.
func TestStoreDigestGolden(t *testing.T) {
	f, err := os.Open("testdata/store_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	schemes := digestSchemes()
	rows := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		var (
			scheme, format, want string
			seed                 int64
		)
		if _, err := fmt.Sscan(line, &scheme, &format, &seed, &want); err != nil {
			t.Fatalf("bad golden row %q: %v", line, err)
		}
		cfg, ok := schemes[scheme]
		fm, okf := digestFormats[format]
		if !ok || !okf {
			t.Fatalf("golden row %q names an unknown scheme or format", line)
		}
		rows++
		if testing.Short() && seed != 1 {
			continue
		}
		t.Run(fmt.Sprintf("%s/%s/%d", scheme, format, seed), func(t *testing.T) {
			t.Parallel()
			cfg.Format = fm
			if got := storeDigest(cfg, seed); got != want {
				t.Errorf("digest is %s, want %s", got, want)
			}
		})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if want := len(schemes) * len(digestFormats) * 2; rows != want {
		t.Errorf("golden file has %d rows, want %d (%d schemes x %d formats x 2 seeds)",
			rows, want, len(schemes), len(digestFormats))
	}
}
