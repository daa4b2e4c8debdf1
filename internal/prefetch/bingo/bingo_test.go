package bingo

import (
	"testing"

	"streamline/internal/mem"
	"streamline/internal/prefetch"
)

func drive(p *Prefetcher, pc mem.PC, lines []mem.Line) []prefetch.Request {
	var all, buf []prefetch.Request
	for i, l := range lines {
		buf = p.Train(prefetch.Event{Now: uint64(i), PC: pc, Addr: mem.AddrOf(l)}, buf[:0])
		all = append(all, buf...)
	}
	return all
}

// footprintWorkload touches the same offsets {0, 3, 7, 12} in many regions,
// with enough interleaving churn to retire trackers into history.
func footprintWorkload(regions int) []mem.Line {
	offsets := []mem.Line{0, 3, 7, 12}
	var lines []mem.Line
	for r := 0; r < regions; r++ {
		base := mem.Line(r * 32)
		for _, o := range offsets {
			lines = append(lines, base+o)
		}
	}
	return lines
}

func TestReplaysLearnedFootprint(t *testing.T) {
	p := New()
	// Train across enough regions to evict trackers into history, then
	// fresh regions should be prefetched on first touch.
	lines := footprintWorkload(400)
	reqs := drive(p, 1, lines)
	if len(reqs) == 0 {
		t.Fatal("no footprint replays")
	}
	// Replayed offsets should match the trained footprint.
	good := 0
	for _, r := range reqs {
		off := mem.LineOf(r.Addr) % 32
		switch off {
		case 0, 3, 7, 12:
			good++
		}
	}
	if float64(good)/float64(len(reqs)) < 0.9 {
		t.Errorf("only %d/%d replayed offsets match the footprint", good, len(reqs))
	}
}

func TestSingleLineRegionsNotStored(t *testing.T) {
	p := New()
	var lines []mem.Line
	for r := 0; r < 300; r++ {
		lines = append(lines, mem.Line(r*32)) // one touch per region
	}
	reqs := drive(p, 1, lines)
	if len(reqs) != 0 {
		t.Errorf("%d prefetches from single-line footprints", len(reqs))
	}
}

// TestAgingAllocatesNothing: a commit into a full long history clears the
// table in place, leaving only the committed key.
func TestAgingAllocatesNothing(t *testing.T) {
	p := New()
	tr := tracker{valid: true, region: 0, pc: 1, footprint: 0b11}
	allocs := testing.AllocsPerRun(10, func() {
		for r := mem.Line(1); p.longN < historySize; r++ {
			p.commit(&tracker{valid: true, region: r * regionLines, pc: 1, footprint: 0b11})
		}
		p.commit(&tr)
		occupied := 0
		for _, fp := range p.longFP {
			if fp != 0 {
				occupied++
			}
		}
		if p.longN != 1 || occupied != 1 || p.longFP[p.longSlot(longEvent(tr.pc, tr.region, tr.offset))] != tr.footprint {
			t.Fatalf("aged history counts %d keys in %d slots, want only the committed one", p.longN, occupied)
		}
	})
	if allocs != 0 {
		t.Errorf("aging allocated %.1f times per commit", allocs)
	}
}
