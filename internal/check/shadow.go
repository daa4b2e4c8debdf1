package check

import (
	"fmt"
	"sort"

	"streamline/internal/cache"
	"streamline/internal/mem"
)

// maxMismatches bounds how many divergences a Shadow records before it stops
// collecting details (the op counter keeps running so the total is known).
const maxMismatches = 32

// Shadow drives a real cache and the reference model in lockstep, comparing
// the outcome of every operation and, on demand, their entire visible state.
// Feed it the same operation sequence the system under test would see; any
// recorded mismatch is a divergence between internal/cache and the
// spelled-out LRU semantics in RefCache.
//
// Timing-only features (ports, MSHRs) must not be exercised through the
// shadowed entry points — the reference model has no notion of them.
type Shadow struct {
	Real *cache.Cache
	Ref  *RefCache

	ops        uint64
	mismatched uint64
	mismatches []string
}

// NewShadow builds a shadowed cache pair with the given geometry.
func NewShadow(cfg cache.Config) *Shadow {
	return &Shadow{
		Real: cache.New(cfg),
		Ref:  NewRef(cfg.Sets, cfg.Ways),
	}
}

func (s *Shadow) reportf(format string, args ...any) {
	s.mismatched++
	if len(s.mismatches) < maxMismatches {
		s.mismatches = append(s.mismatches,
			fmt.Sprintf("op %d: %s", s.ops, fmt.Sprintf(format, args...)))
	}
}

// Mismatches returns the recorded divergences (empty means agreement so far).
func (s *Shadow) Mismatches() []string { return s.mismatches }

// Ops returns the number of operations driven through the pair.
func (s *Shadow) Ops() uint64 { return s.ops }

// Lookup runs the access through both caches and compares results.
func (s *Shadow) Lookup(now uint64, a mem.Access) cache.LookupResult {
	s.ops++
	got := s.Real.Lookup(now, a)
	want := s.Ref.Lookup(now, a)
	if got != want {
		s.reportf("Lookup(%d, %+v): real %+v, ref %+v", now, a, got, want)
	}
	return got
}

// LookupResident runs the fused resident-only lookup through both caches.
func (s *Shadow) LookupResident(now uint64, a mem.Access) (cache.LookupResult, bool) {
	s.ops++
	got, gotOK := s.Real.LookupResident(now, a)
	want, wantOK := s.Ref.LookupResident(now, a)
	if got != want || gotOK != wantOK {
		s.reportf("LookupResident(%d, %+v): real %+v,%v, ref %+v,%v",
			now, a, got, gotOK, want, wantOK)
	}
	return got, gotOK
}

// Probe runs the stateless residency probe through both caches.
func (s *Shadow) Probe(l mem.Line) bool {
	s.ops++
	got := s.Real.Probe(l)
	want := s.Ref.Probe(l)
	if got != want {
		s.reportf("Probe(%#x): real %v, ref %v", uint64(l), got, want)
	}
	return got
}

// Fill runs the fill through both caches and compares the victims.
func (s *Shadow) Fill(a mem.Access, readyAt uint64, src cache.Source) cache.Victim {
	s.ops++
	got := s.Real.Fill(a, readyAt, src)
	want := s.Ref.Fill(a, readyAt, src)
	if got != want {
		s.reportf("Fill(%+v, %d, %v): real victim %+v, ref victim %+v",
			a, readyAt, src, got, want)
	}
	return got
}

// MarkDirty runs the dirty-marking through both caches.
func (s *Shadow) MarkDirty(l mem.Line) bool {
	s.ops++
	got := s.Real.MarkDirty(l)
	want := s.Ref.MarkDirty(l)
	if got != want {
		s.reportf("MarkDirty(%#x): real %v, ref %v", uint64(l), got, want)
	}
	return got
}

// Reserve runs the way reservation through both caches.
func (s *Shadow) Reserve(set, ways int) (flushed, dirty int) {
	s.ops++
	gf, gd := s.Real.Reserve(set, ways)
	wf, wd := s.Ref.Reserve(set, ways)
	if gf != wf || gd != wd {
		s.reportf("Reserve(%d, %d): real flushed %d/dirty %d, ref %d/%d",
			set, ways, gf, gd, wf, wd)
	}
	return gf, gd
}

// lineKey renders one line's full state for content comparison. Way indices
// are deliberately excluded: the two implementations may place the same line
// in different physical ways (first-invalid scan order differs after
// reservation churn) without that being an observable difference.
func lineKey(l mem.Line, dirty, prefetched bool, src cache.Source, readyAt uint64) string {
	return fmt.Sprintf("line=%#x dirty=%v pf=%v src=%v ready=%d",
		uint64(l), dirty, prefetched, src, readyAt)
}

// CheckState compares the two caches' complete visible state: every stats
// counter and the full per-line content (residency, dirty bit, prefetch
// attribution, fill completion time) in both directions.
func (s *Shadow) CheckState() {
	if s.Real.Stats != s.Ref.Stats {
		s.reportf("stats diverge: real %+v, ref %+v", s.Real.Stats, s.Ref.Stats)
	}
	var realLines, refLines []string
	s.Real.ForEachLineState(func(ls cache.LineState) {
		realLines = append(realLines, lineKey(ls.Line, ls.Dirty, ls.Prefetched, ls.Src, ls.ReadyAt))
	})
	for set := range s.Ref.lines {
		for w := s.Ref.reserved[set]; w < s.Ref.ways; w++ {
			if ln := s.Ref.lines[set][w]; ln.valid {
				refLines = append(refLines, lineKey(ln.line, ln.dirty, ln.prefetched, ln.src, ln.readyAt))
			}
		}
	}
	sort.Strings(realLines)
	sort.Strings(refLines)
	if len(realLines) != len(refLines) {
		s.reportf("content diverges: real holds %d lines, ref %d", len(realLines), len(refLines))
		return
	}
	for i := range realLines {
		if realLines[i] != refLines[i] {
			s.reportf("content diverges at sorted index %d: real %q, ref %q",
				i, realLines[i], refLines[i])
			return
		}
	}
}
