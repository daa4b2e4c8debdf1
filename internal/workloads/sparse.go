package workloads

import (
	"math/rand"

	"streamline/internal/mem"
)

// The sparse family models soplex/milc-style sparse linear algebra and
// xz-style hash probing: indexed gathers whose index streams are themselves
// sequential (prefetchable), while the gathered lines are irregular.

// spmvSource performs y = A*x over a CSR matrix, repeatedly. The column
// pattern is fixed, so the x-gather stream repeats exactly — strong temporal
// signal with a sequential edge-index stream mixed in, like soplex's
// simplex iterations.
type spmvSource struct {
	rows   int
	nnzRow int
	xLines int // size of the gathered vector in lines

	cols []int32
	colA array
	x    array
	y    array
}

func (s *spmvSource) Reset(rng *rand.Rand) {
	nnz := s.rows * s.nnzRow
	s.cols = make([]int32, nnz)
	// Hot head: a quarter of the gathers hit a small dense-column region
	// (cache-resident); the cold mass is a permutation, touching each
	// remaining x line once per lap — the per-iteration uniqueness that
	// makes real sparse gather streams temporally prefetchable.
	hotLines := s.xLines / 16
	coldLines := s.xLines - hotLines
	perm := perm32(coldLines, rng)
	pos := 0
	for i := range s.cols {
		if rng.Float64() < 0.25 || pos >= len(perm) {
			u := rng.Float64()
			s.cols[i] = int32(u * u * float64(hotLines))
		} else {
			s.cols[i] = int32(hotLines) + perm[pos]
			pos++
		}
	}
	a := newArena()
	s.colA = a.array(nnz, 4)
	s.x = a.array(s.xLines, mem.LineSize)
	s.y = a.array(s.rows, 8)
}

func (s *spmvSource) Steps() int { return s.rows }

func (s *spmvSource) Step(r int, e *emitter) {
	for idx := r * s.nnzRow; idx < (r+1)*s.nnzRow; idx++ {
		e.load(e.pc, s.colA.at(idx))
		e.load(e.pc+8, s.x.at(int(s.cols[idx])))
	}
	e.store(e.pc+16, s.y.at(r))
}

func (s *spmvSource) EndLap() {}

// hashProbeSource models xz/gcc-style hash-table probing: keys arrive in a
// low-repetition order, so probe addresses rarely recur in the same
// sequence. Temporal prefetchers gain little here, and inaccurate ones
// hurt — this workload separates the accuracy-aware designs from the rest.
type hashProbeSource struct {
	buckets   int
	probes    int
	repeat    float64 // fraction of the probe schedule replayed across laps
	swapChurn bool    // churn by swapping slots (preserves uniqueness) vs
	// replacing them with random keys (accumulates duplicates, the
	// hostile case)
	seqLines int // sequential literal stream interleaved per lap

	rng      *rand.Rand
	schedule []int32
	seqPer   int // literal lines per burst
	seqPos   int // literal cursor of the current lap
	table    array
	seq      array
}

func (h *hashProbeSource) Reset(rng *rand.Rand) {
	h.rng = rng
	h.seqPer, h.seqPos = 0, 0
	if h.seqLines > 0 {
		h.seqPer = h.seqLines / (h.probes / 8)
	}
	a := newArena()
	h.table = a.array(h.buckets, mem.LineSize)
	h.seq = a.array(h.seqLines, mem.LineSize)
	// Each lap probes a fixed irregular sequence of distinct buckets
	// (hash keys rarely repeat back-to-back); cross-lap churn models new
	// keys displacing old ones.
	h.schedule = make([]int32, h.probes)
	perm := perm32(h.buckets, rng)
	for i := range h.schedule {
		h.schedule[i] = perm[i%len(perm)]
	}
}

func (h *hashProbeSource) Steps() int { return len(h.schedule) }

func (h *hashProbeSource) Step(i int, e *emitter) {
	e.chase(e.pc, h.table.at(int(h.schedule[i])))
	if h.seqPer > 0 && i&7 == 7 {
		for j := 0; j < h.seqPer; j++ {
			e.load(e.pc+8, h.seq.at(h.seqPos%h.seqLines))
			h.seqPos++
		}
	}
}

// EndLap rewrites the non-repeating portion of the schedule for the next lap.
func (h *hashProbeSource) EndLap() {
	h.seqPos = 0
	churn := int(float64(len(h.schedule)) * (1 - h.repeat))
	if h.swapChurn {
		for i := 0; i < churn/2; i++ {
			a := h.rng.Intn(len(h.schedule))
			b := h.rng.Intn(len(h.schedule))
			h.schedule[a], h.schedule[b] = h.schedule[b], h.schedule[a]
		}
	} else {
		for i := 0; i < churn; i++ {
			h.schedule[h.rng.Intn(len(h.schedule))] = int32(h.rng.Intn(h.buckets))
		}
	}
}

func init() {
	register(Workload{
		Name: "soplex06", Suite: SPEC06, Irregular: true, nonMem: 3,
		Build: func(s Scale) LapSource {
			return &spmvSource{rows: s.size(24 << 10),
				nnzRow: 6, xLines: s.size(120 << 10)}
		},
	})
	register(Workload{
		Name: "milc06", Suite: SPEC06, Irregular: false, nonMem: 2,
		Build: func(s Scale) LapSource {
			// milc's gathers are larger-footprint but more local; model as
			// SpMV with a smaller gather vector dominated by streaming.
			return &spmvSource{rows: s.size(48 << 10),
				nnzRow: 3, xLines: s.size(16 << 10)}
		},
	})
	register(Workload{
		Name: "xz17", Suite: SPEC17, Irregular: true, nonMem: 3,
		Build: func(s Scale) LapSource {
			return &hashProbeSource{buckets: s.size(96 << 10),
				probes: s.size(96 << 10), repeat: 0.35, seqLines: s.size(8 << 10)}
		},
	})
	register(Workload{
		Name: "gcc17", Suite: SPEC17, Irregular: true, nonMem: 4,
		Build: func(s Scale) LapSource {
			// gcc's IR walks: hash probing with high cross-lap repetition.
			return &hashProbeSource{buckets: s.size(64 << 10),
				probes: s.size(64 << 10), repeat: 0.9, swapChurn: true,
				seqLines: s.size(4 << 10)}
		},
	})
}
