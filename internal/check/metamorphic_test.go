package check

import (
	"math/rand"
	"reflect"
	"testing"

	"streamline/internal/cache"
	"streamline/internal/mem"
	"streamline/internal/prefetch"
	"streamline/internal/prefetch/stride"
	"streamline/internal/sim"
	"streamline/internal/trace"
	"streamline/internal/workloads"
)

// Metamorphic tests: instead of checking one run against an invariant, they
// relate two runs under a transform whose effect on the result is known
// exactly. These catch bugs no single-run check can — a measured-window
// snapshot taken one record early, or replacement state that secretly
// depends on absolute addresses, shifts one side of the relation.

// TestMetamorphicTranslation: shifting every line address by a multiple of
// the set count permutes tags within each set but changes no set index, so
// the cache's entire decision sequence — and therefore all of its counters
// — must be exactly invariant.
func TestMetamorphicTranslation(t *testing.T) {
	for _, shift := range []mem.Line{64, 64 * 3, 64 * 1024} {
		base := cache.New(cache.Config{Name: "base", Sets: 64, Ways: 4, Latency: 10})
		moved := cache.New(cache.Config{Name: "moved", Sets: 64, Ways: 4, Latency: 10})
		rng := rand.New(rand.NewSource(7))
		var now uint64
		for i := 0; i < 30000; i++ {
			now += uint64(rng.Intn(3))
			l := mem.Line(rng.Intn(1024))
			kind := mem.Load
			switch rng.Intn(6) {
			case 1:
				kind = mem.Store
			case 2:
				kind = mem.Prefetch
			}
			// One rng draw per iteration so both caches replay identical
			// choices.
			pfReady := now + uint64(rng.Intn(50))
			run := func(c *cache.Cache, l mem.Line) {
				a := mem.Access{PC: 0x400400, Addr: mem.AddrOf(l), Kind: kind}
				if kind == mem.Prefetch {
					if !c.Probe(l) {
						c.Fill(a, pfReady, cache.SrcL2)
					}
					return
				}
				if !c.Lookup(now, a).Hit {
					c.Fill(a, now+30, cache.SrcDemand)
				}
			}
			run(base, l)
			run(moved, l+shift)
		}
		if base.Stats != moved.Stats {
			t.Errorf("shift %d changed cache behavior:\nbase  %+v\nmoved %+v",
				shift, base.Stats, moved.Stats)
		}
	}
}

// shiftTrace translates every record's address by a fixed offset.
type shiftTrace struct {
	inner trace.Trace
	off   mem.Addr
	run   []trace.Record // the latest shifted run
}

func (s *shiftTrace) Next() (trace.Record, bool) {
	r, ok := s.inner.Next()
	r.Addr += s.off
	return r, ok
}

func (s *shiftTrace) NextChunk() []trace.Record {
	s.run = append(s.run[:0], s.inner.NextChunk()...)
	for i := range s.run {
		s.run[i].Addr += s.off
	}
	return s.run
}

func (s *shiftTrace) Reset() { s.inner.Reset() }

// decisionCounts is the timing-independent projection of cache.Stats: the
// counters fixed by the access/decision sequence alone. Timing-derived
// counters (wait cycles, the timely/late split, stall cycles) legitimately
// move when DRAM row behavior changes under translation.
type decisionCounts struct {
	da, dh, dm, pa, ph   uint64
	fills, useful, unusd uint64
	ev, wb               uint64
	srcFills             [cache.NumSources]uint64
	srcUseful            [cache.NumSources]uint64
	srcEvicted           [cache.NumSources]uint64
}

func countsOf(st cache.Stats) decisionCounts {
	d := decisionCounts{
		da: st.DemandAccesses, dh: st.DemandHits, dm: st.DemandMisses,
		pa: st.PrefetchAccesses, ph: st.PrefetchHits,
		fills: st.PrefetchFills, useful: st.UsefulPrefetches, unusd: st.UnusedPrefetches,
		ev: st.Evictions, wb: st.Writebacks,
	}
	for i, ss := range st.Sources {
		d.srcFills[i] = ss.Fills
		d.srcUseful[i] = ss.UsefulTimely + ss.UsefulLate
		d.srcEvicted[i] = ss.EvictedUnused
	}
	return d
}

func metamorphicConfig() sim.Config {
	cfg := sim.DefaultConfig(1)
	cfg.LLC.Sets = 128
	cfg.L2.Sets = 64
	cfg.WarmupInstructions = 0
	cfg.MeasureInstructions = 10_000
	cfg.L1DPrefetcher = func() prefetch.Prefetcher { return stride.New() }
	return cfg
}

func metamorphicTrace(t *testing.T, name string) trace.Trace {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return w.NewTrace(workloads.Scale{Footprint: 0.05}, 1)
}

// TestMetamorphicSimTranslation: a whole simulated run under an address
// shift that is a multiple of every cache level's set count. The shift
// permutes DRAM rows, so timing moves — but every cache decision (hits,
// misses, fills, evictions, prefetch lifecycle) must be exactly invariant.
// The stride prefetcher trains on address deltas, which the shift
// preserves. (Temporal prefetchers hash absolute lines into their metadata
// structures, so this invariance deliberately does not extend to them.)
func TestMetamorphicSimTranslation(t *testing.T) {
	// 128 lines covers the LLC (128 sets), L2 (64) and L1D set counts.
	const shift = mem.Addr(128 * mem.LineSize * 5)
	for _, wl := range []string{"mcf06", "libquantum06"} {
		base := sim.New(metamorphicConfig())
		base.SetTrace(0, metamorphicTrace(t, wl))
		rb := base.Run()

		moved := sim.New(metamorphicConfig())
		moved.SetTrace(0, &shiftTrace{inner: metamorphicTrace(t, wl), off: shift})
		rm := moved.Run()

		cb, cm := rb.Cores[0], rm.Cores[0]
		if cb.Instructions != cm.Instructions {
			t.Fatalf("%s: instruction counts differ: %d vs %d", wl, cb.Instructions, cm.Instructions)
		}
		if countsOf(cb.L1D) != countsOf(cm.L1D) {
			t.Errorf("%s: L1D decisions changed under translation:\nbase  %+v\nmoved %+v",
				wl, countsOf(cb.L1D), countsOf(cm.L1D))
		}
		if countsOf(cb.L2) != countsOf(cm.L2) {
			t.Errorf("%s: L2 decisions changed under translation", wl)
		}
		if countsOf(rb.LLC) != countsOf(rm.LLC) {
			t.Errorf("%s: LLC decisions changed under translation", wl)
		}
		if cb.PrefetchesIssued != cm.PrefetchesIssued {
			t.Errorf("%s: issued %d vs %d prefetches", wl, cb.PrefetchesIssued, cm.PrefetchesIssued)
		}
		if rb.DRAM.Reads != rm.DRAM.Reads || rb.DRAM.Writes != rm.DRAM.Writes {
			t.Errorf("%s: DRAM traffic changed under translation: %d/%d vs %d/%d",
				wl, rb.DRAM.Reads, rb.DRAM.Writes, rm.DRAM.Reads, rm.DRAM.Writes)
		}
	}
}

// addCounters returns a+b over every uint64 field, recursing through
// nested structs and arrays (cache.Stats and its Sources array).
func addCounters(a, b reflect.Value, out reflect.Value) {
	switch a.Kind() {
	case reflect.Uint64:
		out.SetUint(a.Uint() + b.Uint())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			addCounters(a.Field(i), b.Field(i), out.Field(i))
		}
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			addCounters(a.Index(i), b.Index(i), out.Index(i))
		}
	default:
		panic("addCounters: unsupported kind " + a.Kind().String())
	}
}

func addStats(a, b cache.Stats) cache.Stats {
	var out cache.Stats
	addCounters(reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(&out).Elem())
	return out
}

// TestMetamorphicWarmSplit: running warmup W + measure M must report a
// measured window that composes exactly with a whole run of W — fieldwise,
// whole(0,W) + measured(W,M) == whole(0,W+M) — and the shared LLC/DRAM
// whole-run statistics of the split run must equal the long run's (both
// execute the identical record sequence). This is the trace-concatenation
// identity: the measured window is precisely "the rest of the trace",
// nothing double-counted at the boundary, nothing lost in the snapshot.
// It pins the warmup-snapshot machinery the golden stats depend on.
func TestMetamorphicWarmSplit(t *testing.T) {
	const warm, measure = 3_000, 7_000
	run := func(w, m uint64) sim.Result {
		cfg := metamorphicConfig()
		cfg.WarmupInstructions = w
		cfg.MeasureInstructions = m
		sys := sim.New(cfg)
		sys.SetTrace(0, metamorphicTrace(t, "mcf06"))
		return sys.Run()
	}
	head := run(0, warm)         // whole run over the warmup prefix
	split := run(warm, measure)  // warmup + measured window
	full := run(0, warm+measure) // whole run over the concatenation

	ch, cs, cf := head.Cores[0], split.Cores[0], full.Cores[0]
	if got := ch.Instructions + cs.Instructions; got != cf.Instructions {
		t.Fatalf("instructions: head %d + measured %d != full %d",
			ch.Instructions, cs.Instructions, cf.Instructions)
	}
	if got := ch.Cycles + cs.Cycles; got != cf.Cycles {
		t.Errorf("cycles: head %d + measured %d != full %d", ch.Cycles, cs.Cycles, cf.Cycles)
	}
	if got := addStats(ch.L1D, cs.L1D); got != cf.L1D {
		t.Errorf("L1D does not compose:\nhead+measured %+v\nfull          %+v", got, cf.L1D)
	}
	if got := addStats(ch.L2, cs.L2); got != cf.L2 {
		t.Errorf("L2 does not compose:\nhead+measured %+v\nfull          %+v", got, cf.L2)
	}
	if got := ch.PrefetchesIssued + cs.PrefetchesIssued; got != cf.PrefetchesIssued {
		t.Errorf("issued: head %d + measured %d != full %d",
			ch.PrefetchesIssued, cs.PrefetchesIssued, cf.PrefetchesIssued)
	}
	// Shared whole-run stats: the split run and the long run executed the
	// same records, so their final LLC and DRAM states are identical.
	if split.LLC != full.LLC {
		t.Errorf("whole-run LLC differs between split and full runs:\nsplit %+v\nfull  %+v",
			split.LLC, full.LLC)
	}
	if split.DRAM != full.DRAM {
		t.Errorf("whole-run DRAM differs between split and full runs:\nsplit %+v\nfull  %+v",
			split.DRAM, full.DRAM)
	}
}
