// Package trace defines the instruction-trace abstraction consumed by the
// simulator. A trace is a stream of Record values, each describing one
// memory-referencing instruction together with the number of non-memory
// instructions that precede it. Traces are produced by the synthetic workload
// generators in internal/workloads; Slice replays records held in memory.
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
// true, or a zero Record and false at end of trace. NextChunk consumes and
// returns the next run of unread records, so a consumer pays one dynamic call
// per run, not per record: the run is read-only, valid until the next call on
// the trace, and empty only at end of trace; calls may interleave with Next.
// Reset rewinds the trace to its beginning so a single definition can serve
// warmup and measurement, and so the simulator can replay it until every core
// completes its measured instructions.
type Trace interface {
	Next() (Record, bool)
	NextChunk() []Record
	Reset()
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

// NextChunk implements Trace: the rest of the slice.
func (s *Slice) NextChunk() []Record {
	c := s.recs[s.pos:]
	s.pos = len(s.recs)
	return c
}

// Reset implements Trace.
func (s *Slice) Reset() { s.pos = 0 }
