// Package trace defines the instruction-trace abstraction consumed by the
// simulator. A trace is a stream of Record values, each describing one
// memory-referencing instruction together with the number of non-memory
// instructions that precede it. Traces are produced by the synthetic workload
// generators in internal/workloads; Slice replays records held in memory, and
// Looping and Limit shape any trace into the stream a core consumes.
package trace

import "streamline/internal/mem"

// Record describes one memory-referencing instruction in program order.
type Record struct {
	// PC is the program counter of the memory instruction.
	PC mem.PC
	// Addr is the byte address referenced.
	Addr mem.Addr
	// IsWrite marks stores; everything else is a load.
	IsWrite bool
	// DependsOnPrev marks a load whose address was produced by the
	// immediately preceding memory instruction (a pointer chase). The
	// timing model serializes such loads, which is what makes temporal
	// prefetching profitable on linked traversals.
	DependsOnPrev bool
	// NonMem is the number of non-memory instructions executed between the
	// previous record and this one. It lets the timing model account for
	// compute density without materializing every instruction.
	NonMem uint8
}

// Instructions returns the number of instructions the record represents:
// the memory instruction itself plus its preceding non-memory instructions.
func (r Record) Instructions() uint64 { return 1 + uint64(r.NonMem) }

// Trace is a resettable stream of records. Next returns the next record and
// true, or a zero Record and false at end of trace. Reset rewinds the trace
// to its beginning so a single definition can serve warmup and measurement.
type Trace interface {
	Next() (Record, bool)
	Reset()
}

// Chunker is an optional capability of a Trace: NextChunk consumes and returns
// the next run of unread records, empty only at end of trace, so a consumer
// pays one dynamic call per run, not per record. The run is read-only and valid
// until the next call on the trace; calls may interleave with Next. Looping,
// which wraps every simulated trace, collects runs from inner traces without it.
type Chunker interface {
	NextChunk() []Record
}

// Slice is an in-memory trace over a fixed record slice.
type Slice struct {
	recs []Record
	pos  int
}

// NewSlice returns a trace that replays recs.
func NewSlice(recs []Record) *Slice { return &Slice{recs: recs} }

// Next implements Trace.
func (s *Slice) Next() (Record, bool) {
	if s.pos >= len(s.recs) {
		return Record{}, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r, true
}

// NextChunk implements Chunker: the rest of the slice.
func (s *Slice) NextChunk() []Record {
	c := s.recs[s.pos:]
	s.pos = len(s.recs)
	return c
}

// Reset implements Trace.
func (s *Slice) Reset() { s.pos = 0 }

// Len returns the number of records in the trace.
func (s *Slice) Len() int { return len(s.recs) }

// Looping wraps a trace so that it restarts transparently when exhausted,
// which multi-core simulations use to keep all cores busy until the slowest
// one finishes its measured instruction budget.
type Looping struct {
	inner Trace
	buf   []Record // runs collected from an inner trace that is no Chunker
	// Laps counts how many times the inner trace wrapped around.
	Laps int
}

// NewLooping returns a trace that replays inner forever.
func NewLooping(inner Trace) *Looping { return &Looping{inner: inner} }

// NextChunk implements Chunker; as in Next, asking past a lap's end wraps.
func (l *Looping) NextChunk() []Record {
	c := l.innerChunk()
	if len(c) == 0 {
		l.inner.Reset()
		l.Laps++
		c = l.innerChunk()
	}
	return c
}

func (l *Looping) innerChunk() []Record {
	if c, ok := l.inner.(Chunker); ok {
		return c.NextChunk()
	}
	if l.buf == nil { // first use: 64 records amortize the consumer's call
		l.buf = make([]Record, 0, 64)
	}
	l.buf = l.buf[:0]
	for r, ok := l.inner.Next(); ok; r, ok = l.inner.Next() {
		if l.buf = append(l.buf, r); len(l.buf) == cap(l.buf) {
			break
		}
	}
	return l.buf
}

// Next implements Trace. It never returns false unless the inner trace is
// empty.
func (l *Looping) Next() (Record, bool) {
	r, ok := l.inner.Next()
	if ok {
		return r, true
	}
	l.inner.Reset()
	l.Laps++
	r, ok = l.inner.Next()
	return r, ok
}

// Reset implements Trace.
func (l *Looping) Reset() {
	l.inner.Reset()
	l.Laps = 0
}

// Limit wraps a trace and stops it after a fixed instruction budget.
type Limit struct {
	inner  Trace
	budget uint64
	used   uint64
}

// NewLimit returns a trace that yields records from inner until the total
// instruction count (memory + non-memory) reaches budget.
func NewLimit(inner Trace, budget uint64) *Limit {
	return &Limit{inner: inner, budget: budget}
}

// Next implements Trace.
func (l *Limit) Next() (Record, bool) {
	if l.used >= l.budget {
		return Record{}, false
	}
	r, ok := l.inner.Next()
	if !ok {
		return Record{}, false
	}
	l.used += r.Instructions()
	return r, true
}

// Reset implements Trace.
func (l *Limit) Reset() {
	l.inner.Reset()
	l.used = 0
}
