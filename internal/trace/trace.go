// Package trace defines the instruction-trace abstraction consumed by the
// simulator. A trace is a stream of Record values, each describing one
// memory-referencing instruction together with the number of non-memory
// instructions that precede it. Traces are produced either by the synthetic
// workload generators in internal/workloads or read back from a compact
// binary file written by Writer.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"streamline/internal/mem"
)

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

// File format: a little-endian stream of fixed-size records behind a short
// header. The format is deliberately trivial — the simulator is the only
// consumer — but it lets long synthetic traces be generated once and reused.
const (
	fileMagic   = 0x53544c4e // "STLN"
	fileVersion = 1
	recordBytes = 8 + 8 + 1 + 1 // pc, addr, flags, nonmem
)

const (
	flagWrite = 1 << 0
	flagDep   = 1 << 1
)

// Writer serializes records to an io.Writer in the trace file format.
type Writer struct {
	w     *bufio.Writer
	count uint64
}

// NewWriter writes the file header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], fileMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], fileVersion)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Write appends one record.
func (w *Writer) Write(r Record) error {
	var buf [recordBytes]byte
	binary.LittleEndian.PutUint64(buf[0:8], uint64(r.PC))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(r.Addr))
	var flags byte
	if r.IsWrite {
		flags |= flagWrite
	}
	if r.DependsOnPrev {
		flags |= flagDep
	}
	buf[16] = flags
	buf[17] = r.NonMem
	if _, err := w.w.Write(buf[:]); err != nil {
		return fmt.Errorf("trace: writing record %d: %w", w.count, err)
	}
	w.count++
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() uint64 { return w.count }

// Flush flushes buffered records to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader decodes a trace file produced by Writer. It implements Trace only
// over an io.ReadSeeker (for Reset); use ReadAll for one-shot decoding.
type Reader struct {
	rs  io.ReadSeeker
	br  *bufio.Reader
	err error
}

// ErrBadHeader is returned when a trace file does not start with the
// expected magic number and version.
var ErrBadHeader = errors.New("trace: bad file header")

// NewReader validates the header and returns a Reader positioned at the
// first record.
func NewReader(rs io.ReadSeeker) (*Reader, error) {
	r := &Reader{rs: rs}
	if err := r.rewind(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Reader) rewind() error {
	if _, err := r.rs.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("trace: seeking to start: %w", err)
	}
	r.br = bufio.NewReader(r.rs)
	var hdr [8]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		return fmt.Errorf("trace: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != fileMagic ||
		binary.LittleEndian.Uint32(hdr[4:8]) != fileVersion {
		return ErrBadHeader
	}
	r.err = nil
	return nil
}

// Next implements Trace.
func (r *Reader) Next() (Record, bool) {
	if r.err != nil {
		return Record{}, false
	}
	var buf [recordBytes]byte
	if _, err := io.ReadFull(r.br, buf[:]); err != nil {
		r.err = err
		return Record{}, false
	}
	return Record{
		PC:            mem.PC(binary.LittleEndian.Uint64(buf[0:8])),
		Addr:          mem.Addr(binary.LittleEndian.Uint64(buf[8:16])),
		IsWrite:       buf[16]&flagWrite != 0,
		DependsOnPrev: buf[16]&flagDep != 0,
		NonMem:        buf[17],
	}, true
}

// Reset implements Trace.
func (r *Reader) Reset() {
	if err := r.rewind(); err != nil {
		r.err = err
	}
}

// Err returns the first error encountered while reading, excluding io.EOF.
func (r *Reader) Err() error {
	if r.err == io.EOF {
		return nil
	}
	return r.err
}

// ReadAll decodes every record from rs into memory.
func ReadAll(rs io.ReadSeeker) ([]Record, error) {
	r, err := NewReader(rs)
	if err != nil {
		return nil, err
	}
	var recs []Record
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		recs = append(recs, rec)
	}
	if err := r.Err(); err != nil && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	return recs, nil
}
