package workloads

import (
	"streamline/internal/mem"
	"streamline/internal/trace"
)

// arena hands out disjoint, page-aligned address ranges for a workload's
// arrays. Every workload starts its arena at the same virtual base; the
// simulator offsets addresses per core, so identical workloads on different
// cores never collide in the shared LLC.
type arena struct {
	next mem.Addr
}

const arenaBase mem.Addr = 1 << 32

func newArena() *arena { return &arena{next: arenaBase} }

// alloc reserves size bytes rounded up to a 4KB boundary and returns the
// base address, leaving a guard page between allocations so that distinct
// arrays never share a cache line.
func (a *arena) alloc(size int) mem.Addr {
	const page = 4096
	base := a.next
	sz := (mem.Addr(size) + page - 1) &^ (page - 1)
	a.next += sz + page
	return base
}

// array is a typed view over an arena allocation: element i lives at
// base + i*elem. Workload generators use it to compute the addresses their
// synthetic programs would touch.
type array struct {
	base mem.Addr
	elem int
}

func (a *arena) array(count, elemSize int) array {
	return array{base: a.alloc(count * elemSize), elem: elemSize}
}

func (a array) at(i int) mem.Addr { return a.base + mem.Addr(i*a.elem) }

// emitter appends the records a workload generates to its trace's chunk
// buffer, with convenience constructors for the record kinds. pc is the base
// of the workload's PC region (loop PCs sit 8 bytes apart from it) and nonMem
// its compute density (non-memory instructions preceding each memory
// instruction).
type emitter struct {
	buf    []trace.Record
	pc     mem.PC
	nonMem uint8
}

func (e *emitter) load(pc mem.PC, addr mem.Addr) {
	e.buf = append(e.buf, trace.Record{PC: pc, Addr: addr, NonMem: e.nonMem})
}

// chase emits a load whose address depends on the previous memory
// instruction, serializing it in the timing model.
func (e *emitter) chase(pc mem.PC, addr mem.Addr) {
	e.buf = append(e.buf, trace.Record{PC: pc, Addr: addr, DependsOnPrev: true, NonMem: e.nonMem})
}

func (e *emitter) store(pc mem.PC, addr mem.Addr) {
	e.buf = append(e.buf, trace.Record{PC: pc, Addr: addr, IsWrite: true, NonMem: e.nonMem})
}

// pcBase derives a stable, distinctive PC region for a workload from its
// name, so PC-localized prefetchers see consistent PCs across runs.
func pcBase(name string) mem.PC {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	// Leave room for 256 distinct loop PCs, 8 bytes apart.
	return mem.PC(h&^0x7ff | 0x40000000)
}
