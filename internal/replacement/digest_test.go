package replacement

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"streamline/internal/mem"
)

// victimDigestOps is the length of the operation sequence behind each row of
// testdata/victim_digests.txt.
const victimDigestOps = 200_000

// victimDigestGeometries are the L1D, L2 and LLC shapes of the default
// hierarchy; victimDigestLows the reserved-way floors Victim is asked with
// (none, a small metadata partition, half an LLC set).
var (
	victimDigestGeometries = [][2]int{{64, 12}, {1024, 8}, {2048, 16}}
	victimDigestLows       = []int{0, 3, 8}
)

// victimDigest drives one policy the way a cache does — hits on resident
// ways, misses that fill an invalid way at or above lo or else evict the
// policy's victim, victim queries with no eviction, and invalidations — and
// returns the SHA-256 of every way Victim returned. Ways below lo stay
// resident and keep being hit, as the data ways under an LLC metadata
// partition's floor do. Half the operations land on an eighth of the sets so
// every geometry runs full.
func victimDigest(name string, sets, ways, lo int) string {
	p := Factories[name](sets, ways)
	rng := rand.New(rand.NewSource(int64(sets)<<16 | int64(ways)<<8 | int64(lo)))
	tags := make([]mem.Line, sets*ways)
	valid := make([]bool, sets*ways)
	h := sha256.New()
	for op := 0; op < victimDigestOps; op++ {
		set := rng.Intn(sets)
		if rng.Intn(2) == 0 {
			set = rng.Intn(sets / 8)
		}
		way := rng.Intn(ways)
		i := set*ways + way
		a := Access{PC: mem.PC(0x400000 + 8*rng.Intn(64))}
		switch r := rng.Intn(100); {
		case r < 40 && valid[i]:
			a.Line = tags[i]
			p.Hit(set, way, a)
		case r < 90:
			a.Line = mem.Line(set + sets*rng.Intn(4*ways))
			way = -1
			for w := lo; w < ways; w++ {
				if !valid[set*ways+w] {
					way = w
					break
				}
			}
			if way < 0 {
				way = p.Victim(set, lo, a)
				h.Write([]byte{byte(way)})
				p.Evict(set, way)
			}
			i = set*ways + way
			tags[i], valid[i] = a.Line, true
			p.Fill(set, way, a)
		case r < 96:
			full := true
			for w := lo; w < ways; w++ {
				full = full && valid[set*ways+w]
			}
			if full {
				h.Write([]byte{0xff, byte(p.Victim(set, lo, a))})
			}
		case valid[i]:
			valid[i] = false
			p.Evict(set, way)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestVictimDigestGolden pins every policy's victim sequence on the three
// cache geometries of the default hierarchy. testdata/victim_digests.txt was
// generated from the per-way stamp LRU that preceded the packed-order one; a
// row moves only when a policy picks a different victim, which moves
// simulated statistics with it.
func TestVictimDigestGolden(t *testing.T) {
	f, err := os.Open("testdata/victim_digests.txt")
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
			name, want     string
			sets, ways, lo int
		)
		if _, err := fmt.Sscan(line, &name, &sets, &ways, &lo, &want); err != nil {
			t.Fatalf("bad golden row %q: %v", line, err)
		}
		if Factories[name] == nil || lo >= ways {
			t.Fatalf("golden row %q names an unknown policy or an empty way range", line)
		}
		rows++
		t.Run(fmt.Sprintf("%s/%dx%d/lo%d", name, sets, ways, lo), func(t *testing.T) {
			t.Parallel()
			if got := victimDigest(name, sets, ways, lo); got != want {
				t.Errorf("digest is %s, want %s", got, want)
			}
		})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, g := range victimDigestGeometries {
		for _, lo := range victimDigestLows {
			if lo < g[1] {
				want += len(Factories)
			}
		}
	}
	if rows != want {
		t.Errorf("golden file has %d rows, want %d (%d policies x every geometry and floor below its ways)",
			rows, want, len(Factories))
	}
}
