package workloads

import (
	"math/rand"

	"streamline/internal/mem"
)

// The pointer-chase family models the irregular SPEC workloads (mcf, sphinx,
// omnetpp): linked traversals whose node-visit order repeats across outer
// iterations, producing long correlated address sequences — the bread and
// butter of temporal prefetching.

// chaseSource walks a random permutation cycle over nodes of one cache line
// each. Every lap revisits the nodes in the same order, except that mutate
// fraction of the links are rewired each lap (modeling slowly changing data
// structures) and scanLines of sequential scan traffic is interleaved every
// scanEvery chase steps (modeling mcf's pointer+scan phases).
type chaseSource struct {
	nodes     int
	mutate    float64 // fraction of links rewired per lap
	scanLines int     // sequential lines scanned per lap (0 = no scans)
	scanEvery int     // chase steps between scan bursts

	rng     *rand.Rand
	next    []int32 // permutation: next[i] is the node after i
	data    array
	scan    array
	cur     int
	scanPer int // lines per scan burst
	scanPos int // rotating scan cursor, kept across laps so scans sweep the scan region
}

func (c *chaseSource) Reset(rng *rand.Rand) {
	c.rng = rng
	a := newArena()
	c.data = a.array(c.nodes, mem.LineSize)
	if c.scanLines > 0 {
		c.scan = a.array(c.scanLines*8, mem.LineSize)
	}
	c.next = randomCycle(c.nodes, rng)
	c.cur = 0
	c.scanPos = 0
	c.scanPer = 0
	if c.scanLines > 0 && c.scanEvery > 0 {
		c.scanPer = max(1, c.scanLines/(c.nodes/c.scanEvery))
	}
}

// perm32 returns rng.Perm(n) as []int32: it runs Perm's own loop, so it makes
// the same draws and leaves the same RNG state, without Perm's 8-byte-per-
// element []int.
func perm32(n int, rng *rand.Rand) []int32 {
	m := make([]int32, n)
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = int32(i)
	}
	return m
}

// randomCycle returns a single-cycle permutation of n elements, so a chase
// starting anywhere visits every node before repeating.
func randomCycle(n int, rng *rand.Rand) []int32 {
	order := perm32(n, rng)
	next := make([]int32, n)
	for i := 0; i < n; i++ {
		next[order[i]] = order[(i+1)%n]
	}
	return next
}

func (c *chaseSource) Steps() int { return c.nodes }

func (c *chaseSource) Step(i int, e *emitter) {
	e.chase(e.pc, c.data.at(c.cur))
	c.cur = int(c.next[c.cur])
	if c.scanPer > 0 && i%c.scanEvery == c.scanEvery-1 {
		for j := 0; j < c.scanPer; j++ {
			e.load(e.pc+8, c.scan.at(c.scanPos%(c.scanLines*8)))
			c.scanPos++
		}
	}
}

func (c *chaseSource) EndLap() {
	if c.mutate > 0 {
		c.rewire()
	}
}

// rewire splices random short segments to new positions in the cycle.
// Unlike a successor swap — which would split the cycle into disjoint
// subcycles and strand the walker on a fragment — a splice preserves the
// single-cycle property while changing three correlations per mutation.
func (c *chaseSource) rewire() {
	splices := int(float64(c.nodes) * c.mutate / 3)
	for s := 0; s < splices; s++ {
		a := int32(c.rng.Intn(c.nodes))
		segLen := 1 + c.rng.Intn(4)
		// Segment (start..end) follows a; dest must lie outside it.
		start := c.next[a]
		end := start
		inSeg := map[int32]bool{a: true, start: true}
		for k := 1; k < segLen; k++ {
			end = c.next[end]
			inSeg[end] = true
		}
		after := c.next[end]
		if inSeg[after] {
			continue // segment wrapped near a; skip
		}
		// Walk forward a random distance to find the destination.
		b := after
		for k := c.rng.Intn(64); k > 0; k-- {
			b = c.next[b]
		}
		if inSeg[b] {
			continue
		}
		// Cut the segment out and splice it after b.
		c.next[a] = after
		c.next[end] = c.next[b]
		c.next[b] = start
	}
}

// poolSource models omnetpp-style discrete-event simulation: a pool of event
// objects visited in a mostly-stable priority order with Zipf-biased reuse.
// A fraction of each lap's schedule is perturbed, so correlations are strong
// but not perfect.
type poolSource struct {
	events  int
	perturb float64 // fraction of schedule slots randomized per lap
	hot     int     // hot event objects revisited with extra loads

	rng      *rand.Rand
	schedule []int32
	objs     array
	hotObjs  array
}

func (p *poolSource) Reset(rng *rand.Rand) {
	p.rng = rng
	a := newArena()
	p.objs = a.array(p.events, mem.LineSize)
	p.hotObjs = a.array(p.hot, mem.LineSize)
	// The schedule is a permutation: each event object is handled once per
	// lap, in a fixed irregular order (an event calendar's steady state).
	p.schedule = perm32(p.events, rng)
}

func (p *poolSource) Steps() int { return len(p.schedule) }

func (p *poolSource) Step(i int, e *emitter) {
	e.chase(e.pc, p.objs.at(int(p.schedule[i])))
	if i&7 == 0 { // periodic touch of hot bookkeeping state
		e.load(e.pc+8, p.hotObjs.at(i%p.hot))
	}
}

func (p *poolSource) EndLap() {
	if p.perturb > 0 {
		// Swap schedule slots so the order churns without duplicating
		// events (new events replace finished ones in real calendars).
		n := int(float64(len(p.schedule)) * p.perturb / 2)
		for i := 0; i < n; i++ {
			a := p.rng.Intn(len(p.schedule))
			b := p.rng.Intn(len(p.schedule))
			p.schedule[a], p.schedule[b] = p.schedule[b], p.schedule[a]
		}
	}
}

func init() {
	register(Workload{
		Name: "mcf06", Suite: SPEC06, Irregular: true, nonMem: 3,
		Build: func(s Scale) LapSource {
			return &chaseSource{nodes: s.size(96 << 10),
				mutate: 0.02, scanLines: 2 << 10, scanEvery: 32}
		},
	})
	register(Workload{
		Name: "sphinx06", Suite: SPEC06, Irregular: true, nonMem: 4,
		Build: func(s Scale) LapSource {
			return &chaseSource{nodes: s.size(288 << 10), mutate: 0.005}
		},
	})
	register(Workload{
		Name: "omnetpp06", Suite: SPEC06, Irregular: true, nonMem: 3,
		Build: func(s Scale) LapSource {
			return &poolSource{events: s.size(64 << 10), perturb: 0.02, hot: 512}
		},
	})
	register(Workload{
		Name: "astar06", Suite: SPEC06, Irregular: true, nonMem: 4,
		Build: func(s Scale) LapSource {
			// Pathfinding: linked search whose explored region shifts a
			// little between searches.
			return &chaseSource{nodes: s.size(56 << 10), mutate: 0.04}
		},
	})
	register(Workload{
		Name: "xalancbmk06", Suite: SPEC06, Irregular: true, nonMem: 4,
		Build: func(s Scale) LapSource {
			// DOM-tree walks: event-pool traversal in a highly stable
			// order with a hot symbol table.
			return &poolSource{events: s.size(48 << 10), perturb: 0.01, hot: 768}
		},
	})
	register(Workload{
		Name: "mcf17", Suite: SPEC17, Irregular: true, nonMem: 3,
		Build: func(s Scale) LapSource {
			return &chaseSource{nodes: s.size(128 << 10),
				mutate: 0.03, scanLines: 4 << 10, scanEvery: 24}
		},
	})
	register(Workload{
		Name: "omnetpp17", Suite: SPEC17, Irregular: true, nonMem: 3,
		Build: func(s Scale) LapSource {
			return &poolSource{events: s.size(88 << 10), perturb: 0.04, hot: 1024}
		},
	})
}
