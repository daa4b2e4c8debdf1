// Package workloads provides the synthetic benchmark suite used in place of
// the SPEC 2006, SPEC 2017, and GAP traces evaluated in the paper. Each
// workload reproduces the memory-access archetype that makes the
// corresponding real benchmark interesting for temporal prefetching:
// repeated irregular pointer chases (mcf, sphinx, omnetpp), graph analytics
// gathers (GAP), sparse algebra (soplex, milc), mixed scans, and regular
// streaming/strided kernels that temporal prefetchers should leave alone.
//
// Workloads are deterministic: a workload name plus a seed fully determines
// the generated trace, so experiments are reproducible run to run.
package workloads

import (
	"fmt"
	"math/rand"
	"sort"

	"streamline/internal/trace"
)

// Suite identifies the benchmark suite a workload imitates.
type Suite string

// The three suites evaluated in the paper.
const (
	SPEC06 Suite = "spec06"
	SPEC17 Suite = "spec17"
	GAP    Suite = "gap"
)

// Scale adjusts workload working-set sizes and per-lap lengths so the same
// definitions serve both quick benchmarks and paper-scale runs.
type Scale struct {
	// Footprint multiplies each workload's working-set size. 1.0 is the
	// calibrated default sized against the 2MB-per-core LLC of Table II.
	Footprint float64
}

func (s Scale) size(base int) int {
	if s.Footprint <= 0 {
		return base
	}
	n := int(float64(base) * s.Footprint)
	if n < 64 {
		n = 64
	}
	return n
}

// LapSource generates a workload one "lap" (outer iteration of the modelled
// program) at a time, in resumable steps, so a trace never materializes more
// than a chunk of a lap. The laps loop forever (the simulator bounds
// instructions).
//
// Between two Resets the caller runs laps back to back: Step(0), Step(1), …,
// Step(Steps()-1), then EndLap, then Step(0) of the next lap. Steps are never
// skipped, repeated or reordered, so a source may carry cursors and its RNG
// from one step to the next; a cursor that restarts each lap is rewound by
// EndLap and by Reset.
type LapSource interface {
	// Reset rebuilds the workload's initial state from the given RNG.
	Reset(rng *rand.Rand)
	// Steps returns the number of steps in a lap.
	Steps() int
	// Step emits the records of step i of the current lap: one iteration
	// of the workload's outer loop, a handful of records.
	Step(i int, e *emitter)
	// EndLap applies the end-of-lap mutation, if the workload has one.
	EndLap()
}

// Workload is a named, registered benchmark definition.
type Workload struct {
	// Name is the workload's short identifier (e.g. "mcf06", "pr").
	Name string
	// Suite is the benchmark suite the workload imitates.
	Suite Suite
	// Irregular marks membership in the paper's "irregular subset":
	// benchmarks with at least 5% headroom under an idealized temporal
	// prefetcher with unlimited metadata.
	Irregular bool
	// nonMem is the workload's compute density: the non-memory
	// instructions preceding each memory instruction.
	nonMem uint8
	// Build constructs the workload's lap source at the given scale.
	Build func(s Scale) LapSource
}

// chunkRecords is how many records lapTrace generates ahead of the consumer.
// It is a constant, not a knob: the record stream does not depend on it, and
// any value from a few hundred up amortizes the per-chunk bookkeeping while
// the chunk (24 bytes a record) still fits in the host's L1 beside the
// simulator's own working set.
const chunkRecords = 512

// lapTrace adapts a LapSource to trace.Trace. It buffers one chunk — whole
// steps, until chunkRecords are ready or the lap ends — in a buffer allocated
// once per trace, so memory is bounded: a trace of any length or footprint
// holds ~14 KB beside its source's own state, generates nothing past the
// chunk being consumed, and Next never allocates.
type lapTrace struct {
	src  LapSource
	seed int64
	e    emitter
	pos  int // next unread record of e.buf
	step int // next step of the current lap
}

// NewTrace returns an endless, resettable trace for the workload at the
// given scale and seed. A consumer that wants a bounded prefix counts
// Record.Instructions itself.
func (w Workload) NewTrace(s Scale, seed int64) trace.Trace {
	lt := &lapTrace{src: w.Build(s), seed: seed, e: w.emitter()}
	lt.Reset()
	return lt
}

// emitter returns the workload's emitter over an empty chunk. The headroom
// beyond chunkRecords holds the records of the step that fills the chunk
// (at most 13, but for the scan bursts of mcf at footprints under 0.02, where
// append grows the buffer once to fit).
func (w Workload) emitter() emitter {
	return emitter{pc: pcBase(w.Name), nonMem: w.nonMem,
		buf: make([]trace.Record, 0, chunkRecords+64)}
}

func (t *lapTrace) Reset() {
	t.src.Reset(rand.New(rand.NewSource(t.seed)))
	t.e.buf = t.e.buf[:0]
	t.pos, t.step = 0, 0
}

func (t *lapTrace) Next() (trace.Record, bool) {
	if t.pos >= len(t.e.buf) && !t.refill() {
		return trace.Record{}, false
	}
	r := t.e.buf[t.pos]
	t.pos++
	return r, true
}

// NextChunk implements trace.Trace: the unread rest of the chunk, not a copy.
func (t *lapTrace) NextChunk() []trace.Record {
	if t.pos >= len(t.e.buf) && !t.refill() {
		return nil
	}
	c := t.e.buf[t.pos:]
	t.pos = len(t.e.buf)
	return c
}

// refill generates the next chunk, crossing into the next lap when the
// current one is exhausted. A lap that emits no record at all ends the trace.
func (t *lapTrace) refill() bool {
	t.e.buf, t.pos = t.e.buf[:0], 0
	for {
		first := t.step
		for n := t.src.Steps(); t.step < n && len(t.e.buf) < chunkRecords; t.step++ {
			t.src.Step(t.step, &t.e)
		}
		if len(t.e.buf) > 0 {
			return true
		}
		t.src.EndLap()
		t.step = 0
		if first == 0 { // a whole lap, from its first step, stayed silent
			return false
		}
	}
}

// registry of all workloads, populated by the generator files' init funcs.
var registry = map[string]Workload{}

func register(w Workload) {
	if _, dup := registry[w.Name]; dup {
		panic(fmt.Sprintf("workloads: duplicate registration of %q", w.Name))
	}
	registry[w.Name] = w
}

// Get returns the workload registered under name.
func Get(name string) (Workload, error) {
	w, ok := registry[name]
	if !ok {
		return Workload{}, fmt.Errorf("workloads: unknown workload %q", name)
	}
	return w, nil
}

// All returns every registered workload, sorted by name for determinism.
func All() []Workload {
	out := make([]Workload, 0, len(registry))
	for _, w := range registry {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the names of the given workloads.
func Names(ws []Workload) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name
	}
	return out
}

// Mix is a multi-programmed workload assignment: one workload name per core.
type Mix struct {
	// ID numbers the mix within its generated batch.
	ID int
	// Members lists the workload assigned to each core.
	Members []Workload
}

// Mixes generates count deterministic multi-programmed mixes of the
// memory-intensive workloads for the given core count, mirroring the
// paper's 150 random mixes per core count.
func Mixes(count, cores int, seed int64) []Mix {
	pool := All()
	rng := rand.New(rand.NewSource(seed))
	mixes := make([]Mix, count)
	for i := range mixes {
		members := make([]Workload, cores)
		for c := range members {
			members[c] = pool[rng.Intn(len(pool))]
		}
		mixes[i] = Mix{ID: i, Members: members}
	}
	return mixes
}
