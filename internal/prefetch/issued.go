package prefetch

import "streamline/internal/mem"

// issuedLines is the window's length, and its bucket count.
const issuedLines = 64

// Issued is a prefetcher's window of recently issued lines: the last 64
// marked, first in, first out, duplicates and all. The temporal prefetchers
// skip a chain target found in it without spending degree, so the chain runs
// ahead of the demand stream.
//
// It is a ring with a hash index threaded through it: head holds, per bucket,
// the slot of the bucket's latest mark, and prev, per slot, the slot that was
// its bucket's head before it. Lines leave oldest first, so a bucket's live
// lines are a prefix of its chain, and a link into a slot rewritten since is
// the first whose age does not increase. Every slot holds a line of the
// window, so a walk that strays onto another bucket's chain through a stale
// head may run longer but cannot answer wrongly.
//
// The zero value is a window of 64 marks of line 0: Has(0) holds until 64
// marks have displaced them, and every other line reads as not issued.
type Issued struct {
	ring [issuedLines]mem.Line
	n    uint64 // marks so far; the next one lands in ring[n%issuedLines]
	head [issuedLines]uint8
	prev [issuedLines]uint8
}

func issuedBucket(l mem.Line) uint8 { return uint8(uint64(l) * 0x9e3779b97f4a7c15 >> 58) }

// age counts the marks since slot s was written, modulo the ring.
func (w *Issued) age(s uint8) uint8 { return uint8(w.n-1-uint64(s)) % issuedLines }

// Has reports whether l is among the last 64 lines marked.
func (w *Issued) Has(l mem.Line) bool {
	if l == 0 && w.n < issuedLines {
		return true // a slot no mark has reached yet
	}
	s := w.head[issuedBucket(l)]
	for age := w.age(s); w.ring[s] != l; {
		s = w.prev[s]
		older := w.age(s)
		if older <= age {
			return false
		}
		age = older
	}
	return true
}

// ResetIssued returns w emptied to the zero value in place, or a new window
// when w is nil. The temporal prefetchers' training-unit entries take their
// window this way when a PC claims them, so an entry no PC has claimed holds
// none and a claimed one reuses its window across PC changes.
func ResetIssued(w *Issued) *Issued {
	if w == nil {
		return new(Issued)
	}
	*w = Issued{}
	return w
}

// Mark records l as issued, displacing the oldest line of the window.
func (w *Issued) Mark(l mem.Line) {
	s, b := uint8(w.n%issuedLines), issuedBucket(l)
	w.ring[s] = l
	w.prev[s] = w.head[b]
	w.head[b] = s
	w.n++
}
