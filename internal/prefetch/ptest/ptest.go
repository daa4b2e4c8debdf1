// Package ptest is the shared harness behind each prefetcher package's
// conformance test. It drives a prefetcher over a deterministic synthetic
// access stream and checks the contracts every implementation in the
// repository must satisfy: line-aligned request addresses, a bounded degree
// per training event, determinism (two fresh instances fed the same stream
// emit identical request sequences), and — for temporal prefetchers that
// report metadata statistics — monotonically non-decreasing counters whose
// accounting identities hold at every step.
package ptest

import (
	"fmt"
	"math/rand"
	"testing"

	"streamline/internal/cache"
	"streamline/internal/check"
	"streamline/internal/mem"
	"streamline/internal/meta"
	"streamline/internal/prefetch"
)

// maxDegree is the sanity bound on requests per training event; no modeled
// prefetcher legitimately fans out wider on one access.
const maxDegree = 512

// streamBase keeps the synthetic stream's lines well away from address zero
// so negative-stride candidates cannot underflow.
const streamBase mem.Line = 1 << 20

// Stream returns the deterministic training stream: a sequential walk, a
// strided walk, and two laps of a pseudo-random pointer chase (the repeat is
// what gives temporal prefetchers correlations to replay), interleaved with
// occasional stores and prefetch-hit events the way the simulator would
// deliver them.
func Stream() []prefetch.Event {
	rng := rand.New(rand.NewSource(7))
	var evs []prefetch.Event
	now := uint64(0)
	emit := func(pc mem.PC, l mem.Line, hit, pfHit bool) {
		now += uint64(rng.Intn(20)) + 1
		evs = append(evs, prefetch.Event{
			Now: now, PC: pc, Addr: mem.AddrOf(l) + mem.Addr(rng.Intn(mem.LineSize)),
			IsStore: rng.Intn(16) == 0, Hit: hit, PrefetchHit: pfHit,
		})
	}
	// Sequential walk.
	for i := 0; i < 256; i++ {
		emit(0x400100, streamBase+mem.Line(i), i%4 != 0, false)
	}
	// Strided walk (stride 3 lines).
	for i := 0; i < 256; i++ {
		emit(0x400200, streamBase+4096+mem.Line(3*i), false, false)
	}
	// Pointer chase: a fixed permutation walk over 512 lines, two laps.
	perm := rng.Perm(512)
	for lap := 0; lap < 2; lap++ {
		for _, p := range perm {
			// Second-lap accesses occasionally arrive as prefetch hits,
			// the temporal prefetchers' chaining signal.
			emit(0x400300, streamBase+8192+mem.Line(p), false, lap == 1 && rng.Intn(2) == 0)
		}
	}
	return evs
}

// metaCounters flattens the identity-checkable counters of a meta.Stats.
func metaCounters(st meta.Stats) []uint64 {
	return []uint64{
		st.Lookups, st.TriggerHits, st.Inserts, st.Updates, st.Reads,
		st.Writes, st.RearrangeReads, st.RearrangeWrites, st.FilteredInserts,
		st.FilteredLookups, st.AliasedInserts, st.Evictions,
	}
}

// Exercise runs the shared conformance checks against prefetchers built by
// mk. Each call to mk must return a fresh, identically configured instance.
func Exercise(t *testing.T, mk func() prefetch.Prefetcher) {
	t.Helper()
	evs := Stream()
	p1, p2 := mk(), mk()
	var buf1, buf2 []prefetch.Request
	var prev []uint64
	for i, ev := range evs {
		buf1 = p1.Train(ev, buf1[:0])
		buf2 = p2.Train(ev, buf2[:0])

		if len(buf1) > maxDegree {
			t.Fatalf("event %d: %d requests from one event (degree bound %d)",
				i, len(buf1), maxDegree)
		}
		for _, r := range buf1 {
			if mem.Offset(r.Addr) != 0 {
				t.Fatalf("event %d: unaligned prefetch address %#x", i, uint64(r.Addr))
			}
			if r.Addr == 0 || r.Addr >= 1<<44 {
				t.Fatalf("event %d: prefetch address %#x outside the plausible range",
					i, uint64(r.Addr))
			}
		}

		if len(buf1) != len(buf2) {
			t.Fatalf("event %d: instance 1 emitted %d requests, instance 2 emitted %d",
				i, len(buf1), len(buf2))
		}
		for j := range buf1 {
			if buf1[j] != buf2[j] {
				t.Fatalf("event %d request %d: %+v vs %+v (nondeterministic)",
					i, j, buf1[j], buf2[j])
			}
		}

		if mr, ok := p1.(prefetch.MetaReporter); ok && i%64 == 63 {
			st := mr.MetaStats()
			cur := metaCounters(st)
			for k, v := range cur {
				if prev != nil && v < prev[k] {
					t.Fatalf("event %d: metadata counter %d decreased %d -> %d",
						i, k, prev[k], v)
				}
			}
			prev = cur
			st.CounterLaws(func(_, format string, args ...any) {
				t.Fatalf("event %d: %s", i, fmt.Sprintf(format, args...))
			})
		}
	}
	if p1.Name() == "" {
		t.Fatal("prefetcher reports an empty name")
	}
}

// Oracle replays the conformance stream through a differentially-shadowed
// cache: demand events perform lookups and fills, and the prefetcher's
// emitted requests are resolved the way the simulator's issue path would —
// duplicate-probe first, then a prefetch fill attributed to the engine.
// Every hit/miss/victim decision is verified in lockstep against the
// reference LRU model (internal/check), and the complete cache state is
// compared periodically. The point of running this per prefetcher is
// traffic shape: each engine exercises the cache with its own burst degree,
// address spread, and re-reference mix, reaching interleavings a uniform
// random stream does not.
func Oracle(t *testing.T, mk func() prefetch.Prefetcher) {
	t.Helper()
	sh := check.NewShadow(cache.Config{Name: "oracle", Sets: 64, Ways: 8, Latency: 12})
	p := mk()
	var buf []prefetch.Request
	for i, ev := range Stream() {
		a := mem.Access{PC: ev.PC, Addr: ev.Addr, Kind: mem.Load, Core: 0}
		if ev.IsStore {
			a.Kind = mem.Store
		}
		if !sh.Lookup(ev.Now, a).Hit {
			sh.Fill(a, ev.Now+40, cache.SrcDemand)
		}
		buf = p.Train(ev, buf[:0])
		for _, r := range buf {
			pa := mem.Access{Addr: r.Addr, Kind: mem.Prefetch, Core: 0}
			if sh.Probe(pa.Line()) {
				continue // duplicate: the simulator drops it untouched
			}
			sh.Fill(pa, ev.Now+r.Delay+100, cache.SrcL2)
		}
		if i%128 == 127 {
			sh.CheckState()
		}
	}
	sh.CheckState()
	for _, m := range sh.Mismatches() {
		t.Errorf("differential divergence after %d ops: %s", sh.Ops(), m)
	}
}
