package meta

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"streamline/internal/mem"
)

// copyLookup is the copying reference for Lookup: it finds the trigger's
// slot by scanning the key row itself and copies the entry out, the way
// Lookup filled an Entry before it returned a view. It leaves the store's
// statistics and policy state alone.
func copyLookup(s *Store, t mem.Line) (Entry, bool) {
	h := mem.HashLine64(t)
	set, live := s.currentSet(h)
	if !live {
		return Entry{}, false
	}
	lo, hi, _, ok := s.candidates(set, t, h)
	if !ok {
		return Entry{}, false
	}
	key := uint16(h>>22) & (1<<triggerHashBits - 1)
	for i := set*s.stride + lo; i < set*s.stride+hi; i++ {
		if s.keys[i] != key {
			continue
		}
		n := int(s.info[i] &^ confBit)
		targets := []mem.Line{s.slots[i].first}
		targets = append(targets, s.targets[i*(s.k-1):i*(s.k-1)+n-1]...)
		return Entry{Trigger: s.slots[i].trigger, Targets: targets, Conf: s.info[i]&confBit != 0}, true
	}
	return Entry{}, false
}

// TestHitMatchesCopyingReference runs seeded Lookup/Insert/Resize sequences
// on all ten partitioning configurations in all three formats. Every Lookup
// must agree with the copying reference, and every hit taken since the last
// Insert or Resize must still read what the reference copied when it was
// taken: later Lookups leave a Hit valid.
func TestHitMatchesCopyingReference(t *testing.T) {
	const ops = 20_000
	for scheme, base := range digestSchemes() {
		for fname, format := range digestFormats {
			t.Run(scheme+"/"+fname, func(t *testing.T) {
				cfg := base
				cfg.Format, cfg.MetaWaysPerSet, cfg.MaxBytes = format, 8, 64<<10
				if format == Stream {
					cfg.StreamLength = 4
				}
				s := NewStore(cfg, &NullBridge{Sets: 256, Ways: 16, Latency: 20})
				k := s.StreamLength()
				rng := rand.New(rand.NewSource(int64(len(scheme)*3 + int(format))))
				pool := make([]mem.Line, 2_000)
				for i := range pool {
					pool[i] = mem.Line(rng.Uint64() >> 24)
				}
				type held struct {
					hit  Hit
					want Entry
				}
				var live []held
				var hits int
				targets := make([]mem.Line, 0, k+1)
				for op := 0; op < ops; op++ {
					tr := pool[rng.Intn(len(pool))]
					if rng.Intn(2) == 0 {
						tr = pool[rng.Intn(len(pool)/10)]
					}
					switch r := rng.Intn(1000); {
					case r < 450:
						variant := mem.Line(rng.Intn(2))
						targets = targets[:0]
						for i, n := 0, 1+rng.Intn(k+1); i < n; i++ {
							targets = append(targets, tr+mem.Line(i+1)+variant)
						}
						s.Insert(uint64(op), 1, Entry{Trigger: tr, Targets: targets})
						live = live[:0]
					case r < 997:
						want, wantOK := copyLookup(s, tr)
						hit, ok, _ := s.Lookup(uint64(op), 1, tr)
						if ok != wantOK {
							t.Fatalf("op %d: Lookup(%d) found=%v, reference %v", op, tr, ok, wantOK)
						}
						if ok {
							hits++
							live = append(live, held{hit, want})
						}
						for _, h := range live {
							got := Entry{Trigger: h.hit.Trigger(), Targets: h.hit.AppendTargets(nil), Conf: h.hit.Conf()}
							if got.Trigger != h.want.Trigger || h.hit.First() != h.want.Targets[0] ||
								got.Conf != h.want.Conf || !slices.Equal(got.Targets, h.want.Targets) {
								t.Fatalf("op %d: hit reads %s (first %d), reference copied %s",
									op, show(got), h.hit.First(), show(h.want))
							}
						}
					default:
						s.Resize(cfg.MaxBytes / 8 * rng.Intn(10))
						live = live[:0]
					}
				}
				if hits < ops/20 {
					t.Errorf("only %d of %d operations hit; the sequence exercises too little", hits, ops)
				}
			})
		}
	}
}

func show(e Entry) string { return fmt.Sprintf("{%d %v conf=%v}", e.Trigger, e.Targets, e.Conf) }

// TestHitAppendsToCallerBuffer checks that AppendTargets extends the buffer
// it is given and keeps what the buffer already held.
func TestHitAppendsToCallerBuffer(t *testing.T) {
	s := NewStore(streamlineConfig(), llc2MB())
	s.Insert(0, 1, Entry{Trigger: 40, Targets: []mem.Line{41, 42, 43, 44}})
	hit, ok, _ := s.Lookup(0, 1, 40)
	if !ok {
		t.Fatal("lookup missed a just-inserted trigger")
	}
	buf := make([]mem.Line, 1, 8)
	buf[0] = 7
	if got := hit.AppendTargets(buf); !slices.Equal(got, []mem.Line{7, 41, 42, 43, 44}) || &got[0] != &buf[0] {
		t.Errorf("AppendTargets = %v, want [7 41 42 43 44] in the caller's buffer", got)
	}
}
