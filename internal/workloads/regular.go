package workloads

import (
	"math/rand"

	"streamline/internal/mem"
)

// The regular family models the streaming and strided SPEC workloads
// (libquantum, lbm, roms, bzip2, soplex, xz). Stride prefetchers cover most
// of these; they exist in the suite so the temporal prefetchers are measured
// on workloads where their metadata partition is pure cost — the dynamic
// partitioners must learn to shrink it.

// streamSource sweeps one or more large arrays sequentially at 8-byte
// element granularity (eight touches per cache line, like real array code),
// writing a fraction of elements (lbm-style read-modify-write streaming).
type streamSource struct {
	lines   int // lines per array
	arrays  int
	stride  int     // element stride within each sweep
	storePW float64 // probability a touch is a store

	rng  *rand.Rand
	arrs []array
	arr  int // array being swept
	elem int // next element of that array
}

func (s *streamSource) Reset(rng *rand.Rand) {
	s.rng = rng
	s.stride = max(s.stride, 1)
	s.arr, s.elem = 0, 0
	a := newArena()
	s.arrs = make([]array, s.arrays)
	for i := range s.arrs {
		s.arrs[i] = a.array(s.lines*8, 8)
	}
}

func (s *streamSource) Steps() int {
	return s.arrays * ((s.lines*8 + s.stride - 1) / s.stride)
}

// Step touches one element; the (arr, elem) cursor stands in for the nested
// array and element loops.
func (s *streamSource) Step(_ int, e *emitter) {
	apc := e.pc + mem.PC(8*s.arr)
	addr := s.arrs[s.arr].at(s.elem)
	if s.storePW > 0 && s.rng.Float64() < s.storePW {
		e.store(apc, addr)
	} else {
		e.load(apc, addr)
	}
	if s.elem += s.stride; s.elem >= s.lines*8 {
		s.arr, s.elem = s.arr+1, 0
	}
}

func (s *streamSource) EndLap() { s.arr, s.elem = 0, 0 }

// stencilSource models roms/lbm-style structured-grid sweeps: for each
// interior point, load a small neighborhood at fixed offsets (rows apart)
// and store the result. Cells are 8-byte elements, giving multiple
// concurrent fixed strides — ideal for stride/Berti prefetchers, useless
// for temporal ones.
type stencilSource struct {
	rows int
	cols int // elements per row

	grid array
	outg array
}

func (s *stencilSource) Reset(rng *rand.Rand) {
	a := newArena()
	s.grid = a.array(s.rows*s.cols, 8)
	s.outg = a.array(s.rows*s.cols, 8)
}

func (s *stencilSource) Steps() int { return (s.rows - 2) * s.cols }

// Step computes one interior point; point p of the lap is grid cell p+cols,
// which skips the north boundary row.
func (s *stencilSource) Step(p int, e *emitter) {
	i := p + s.cols
	e.load(e.pc, s.grid.at(i-s.cols)) // north
	e.load(e.pc+8, s.grid.at(i))      // center
	e.load(e.pc+16, s.grid.at(i+s.cols))
	e.store(e.pc+24, s.outg.at(i))
}

func (s *stencilSource) EndLap() {}

// cacheResidentSource models bzip2-like low-MPKI behavior: a working set
// that fits in the L2 with occasional excursions to a larger table. Almost
// no LLC misses, so any space a temporal prefetcher steals from the LLC is
// wasted — this is the workload the paper says penalizes Streamline's 64
// permanently allocated metadata sets.
type cacheResidentSource struct {
	hotLines  int // L2-resident working set
	coldLines int // rarely-touched overflow table
	steps     int

	rng  *rand.Rand
	hot  array
	cold array
}

func (c *cacheResidentSource) Reset(rng *rand.Rand) {
	c.rng = rng
	a := newArena()
	c.hot = a.array(c.hotLines, mem.LineSize)
	c.cold = a.array(c.coldLines, mem.LineSize)
}

func (c *cacheResidentSource) Steps() int { return c.steps }

func (c *cacheResidentSource) Step(i int, e *emitter) {
	e.load(e.pc, c.hot.at(c.rng.Intn(c.hotLines)))
	if i&63 == 0 {
		e.load(e.pc+8, c.cold.at(c.rng.Intn(c.coldLines)))
	}
}

func (c *cacheResidentSource) EndLap() {}

func init() {
	register(Workload{
		Name: "libquantum06", Suite: SPEC06, Irregular: false, nonMem: 2,
		Build: func(s Scale) LapSource {
			return &streamSource{lines: s.size(96 << 10), arrays: 2, storePW: 0.3}
		},
	})
	register(Workload{
		Name: "lbm17", Suite: SPEC17, Irregular: false, nonMem: 2,
		Build: func(s Scale) LapSource {
			return &streamSource{lines: s.size(48 << 10), arrays: 4, storePW: 0.5}
		},
	})
	register(Workload{
		Name: "roms17", Suite: SPEC17, Irregular: false, nonMem: 3,
		Build: func(s Scale) LapSource {
			return &stencilSource{rows: s.size(256), cols: 2048}
		},
	})
	register(Workload{
		Name: "leslie3d06", Suite: SPEC06, Irregular: false, nonMem: 3,
		Build: func(s Scale) LapSource {
			// Multi-stride fluid dynamics sweeps.
			return &streamSource{lines: s.size(40 << 10),
				arrays: 3, stride: 2, storePW: 0.25}
		},
	})
	register(Workload{
		Name: "cactu17", Suite: SPEC17, Irregular: false, nonMem: 4,
		Build: func(s Scale) LapSource {
			// A wider stencil grid than roms.
			return &stencilSource{rows: s.size(320), cols: 1536}
		},
	})
	register(Workload{
		Name: "bzip206", Suite: SPEC06, Irregular: false, nonMem: 4,
		Build: func(s Scale) LapSource {
			return &cacheResidentSource{hotLines: s.size(6 << 10),
				coldLines: s.size(64 << 10), steps: 256 << 10}
		},
	})
}
