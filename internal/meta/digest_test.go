package meta

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
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
// is used, so the digest is independent of the store's memory layout. Unless
// cfg names a policy, odd seeds run entry-LRU and even seeds entry-SRRIP.
func storeDigest(cfg StoreConfig, seed int64) string {
	cfg.MetaWaysPerSet = 8
	cfg.MaxBytes = 64 << 10
	if cfg.Format == Stream {
		cfg.StreamLength = 4
	}
	if cfg.Policy == nil && seed%2 == 0 {
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
			hit, ok, lat := s.Lookup(now, pc, t)
			e := entryOf(hit, ok)
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

// readGolden calls row with the fields of every row of a testdata file of
// "scheme format seed sha256" lines and returns how many rows it read.
func readGolden(t *testing.T, path string, row func(line, scheme, format string, seed int64, want string)) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
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
		rows++
		row(line, scheme, format, seed, want)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestStoreDigestGolden pins the store's observable behaviour for every
// partitioning scheme and entry format. testdata/store_digests.txt was
// generated from the slice-of-slices store that preceded the flat set-major
// layout; a row moves only when the store's decisions change, which moves
// simulated statistics with it.
func TestStoreDigestGolden(t *testing.T) {
	schemes := digestSchemes()
	rows := readGolden(t, "testdata/store_digests.txt", func(line, scheme, format string, seed int64, want string) {
		cfg, ok := schemes[scheme]
		fm, okf := digestFormats[format]
		if !ok || !okf {
			t.Fatalf("golden row %q names an unknown scheme or format", line)
		}
		if testing.Short() && seed != 1 {
			return
		}
		t.Run(fmt.Sprintf("%s/%s/%d", scheme, format, seed), func(t *testing.T) {
			t.Parallel()
			cfg.Format = fm
			if got := storeDigest(cfg, seed); got != want {
				t.Errorf("digest is %s, want %s", got, want)
			}
		})
	})
	if want := len(schemes) * len(digestFormats) * 2; rows != want {
		t.Errorf("golden file has %d rows, want %d (%d schemes x %d formats x 2 seeds)",
			rows, want, len(schemes), len(digestFormats))
	}
}

// pcRecorder is a PC-reading entry policy: it writes every call it receives,
// the access's PC included, and every victim it picks to w. Its victim is
// the inner policy's unless bit 3 of the incoming PC is set, which makes it
// the last candidate, so the PCs a store hands it steer its decisions too.
type pcRecorder struct {
	inner EntryPolicy
	w     io.Writer
}

func (p *pcRecorder) Touch(set, slot int, a EntryAccess) {
	fmt.Fprintf(p.w, "T %d %d %d %d %d\n", set, slot, a.PC, a.Trigger, a.FirstTarget)
	p.inner.Touch(set, slot, a)
}

func (p *pcRecorder) Fill(set, slot int, a EntryAccess) {
	fmt.Fprintf(p.w, "F %d %d %d %d %d\n", set, slot, a.PC, a.Trigger, a.FirstTarget)
	p.inner.Fill(set, slot, a)
}

func (p *pcRecorder) Victim(set, lo, hi int, a EntryAccess) int {
	v := p.inner.Victim(set, lo, hi, a)
	if a.PC&8 != 0 {
		v = hi - 1
	}
	fmt.Fprintf(p.w, "V %d %d %d %d %d %d -> %d\n", set, lo, hi, a.PC, a.Trigger, a.FirstTarget, v)
	return v
}

func (p *pcRecorder) Evict(set, slot int) {
	fmt.Fprintf(p.w, "E %d %d\n", set, slot)
	p.inner.Evict(set, slot)
}

// policyAccessDigest runs storeDigest's sequence on a store whose entry
// policy is a pcRecorder around entry-LRU (odd seeds) or entry-SRRIP (even
// seeds) and returns the SHA-256 of the store digest followed by every call
// the policy saw.
func policyAccessDigest(cfg StoreConfig, seed int64) string {
	inner := NewEntryLRU
	if seed%2 == 0 {
		inner = NewEntrySRRIP
	}
	h := sha256.New()
	cfg.Policy = func(sets, slots int) EntryPolicy {
		return &pcRecorder{inner: inner(sets, slots), w: h}
	}
	store := storeDigest(cfg, seed)
	fmt.Fprintln(h, store)
	return hex.EncodeToString(h.Sum(nil))
}

// TestPolicyAccessDigestGolden pins every access context, PC included, and
// every victim that a PC-reading entry policy sees on the rearranged schemes,
// whose resizes reinsert entries under the PC that last stored them.
// testdata/policy_access_digests.txt was recorded while each slot record
// still carried its PC; a row moves when a store hands a policy a different
// call, PC or victim.
func TestPolicyAccessDigestGolden(t *testing.T) {
	schemes := digestSchemes()
	rows := readGolden(t, "testdata/policy_access_digests.txt", func(line, scheme, format string, seed int64, want string) {
		cfg, ok := schemes[scheme]
		fm, okf := digestFormats[format]
		if !ok || !okf || cfg.Filtered {
			t.Fatalf("golden row %q names an unknown scheme or format, or a filtered one", line)
		}
		if testing.Short() && seed != 1 {
			return
		}
		t.Run(fmt.Sprintf("%s/%s/%d", scheme, format, seed), func(t *testing.T) {
			t.Parallel()
			cfg.Format = fm
			if got := policyAccessDigest(cfg, seed); got != want {
				t.Errorf("digest is %s, want %s", got, want)
			}
		})
	})
	if want := 4 * len(digestFormats) * 2; rows != want {
		t.Errorf("golden file has %d rows, want %d (4 rearranged schemes x %d formats x 2 seeds)",
			rows, want, len(digestFormats))
	}
}
