package berti

import "streamline/internal/mem"

// Slot is a table slot as plain values, for the external lockstep test: the
// tag, the PC's history newest first, its deltas in table order and its
// accesses since the last decay.
type Slot struct {
	Tag    uint64
	Hist   []Access
	Deltas []Delta
	Seen   int
}

// Access is one history entry.
type Access struct {
	Line mem.Line
	At   uint64
}

// Delta is one scored delta.
type Delta struct {
	Delta int64
	Score int
}

// Slot returns table slot k, nil when no PC holds it.
func (p *Prefetcher) Slot(k int) *Slot {
	e := &p.table[k]
	if !e.valid {
		return nil
	}
	s := &Slot{Tag: uint64(e.tag), Seen: int(e.seen)}
	for _, h := range e.st.hist[:e.histN] {
		s.Hist = append(s.Hist, Access{h.line, h.at})
	}
	for i, d := range e.st.delta[:e.deltaN] {
		s.Deltas = append(s.Deltas, Delta{d, int(e.st.score[i])})
	}
	return s
}
