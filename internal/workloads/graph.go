package workloads

import (
	"math/rand"

	"streamline/internal/mem"
)

// The graph family models the GAP benchmark suite: vertex-centric analytics
// over a synthetic power-law graph. Property arrays use one cache line per
// vertex (fat vertex records), so every gather touches a distinct line and
// the per-iteration gather sequence — identical lap after lap — is the long
// correlated stream that gives temporal prefetchers their largest wins.

// graph is a CSR-format directed graph.
type graph struct {
	n       int
	offsets []int32
	edges   []int32
}

// buildGraph creates a graph with n vertices and roughly n*avgDeg edges whose
// in-degree distribution is skewed (preferential attachment-ish), mirroring
// the power-law structure of the GAP inputs.
func buildGraph(n, avgDeg int, rng *rand.Rand) *graph {
	g := &graph{n: n, offsets: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		d := 1 + rng.Intn(2*avgDeg-1) // mean avgDeg, min 1
		g.offsets[i+1] = g.offsets[i] + int32(d)
	}
	g.edges = make([]int32, g.offsets[n])
	// Skewed endpoint sampling: a fourth-power uniform sample concentrates
	// in-edges on low vertex ids, giving the heavy-tailed in-degree
	// distribution of real graphs. The hot endpoints stay cache-resident,
	// so the miss stream a temporal prefetcher trains on is dominated by
	// cold, mostly-single-occurrence vertices — stable correlations.
	for i := range g.edges {
		u := rng.Float64()
		v := int(u * u * u * u * float64(n))
		if v >= n {
			v = n - 1
		}
		g.edges[i] = int32(v)
	}
	return g
}

// gatherSource is the shared skeleton of the GAP kernels: stream through
// the edge list and gather a property line per edge. Edge targets split
// into a hot head (hub vertices, revisited often and therefore
// cache-resident) and a cold mass that — as in real graphs, where the
// expected per-iteration repeat count of a non-hub vertex is about one —
// each appear once per lap, in a fixed irregular order. The cold gather
// sequence is the long repeating correlated stream temporal prefetchers
// exist for. Variants layer dependent gathers and per-lap mutation on top.
type gatherSource struct {
	edges   int     // gathers per lap
	hubs    int     // hot vertex lines (cache-resident head)
	hotFrac float64 // fraction of gathers that touch the hot head
	chase   bool    // dependent gathers (rank propagation via pointers)
	mutate  float64 // fraction of the cold order reshuffled per lap
	writeTo bool    // write a result line per 8 edges

	rng     *rand.Rand
	isHot   []bool  // per edge slot
	hotIdx  []int32 // hub index per hot slot
	cold    []int32 // permutation of cold lines over cold slots
	coldPos int     // next cold slot of the current lap
	hot     array
	coldA   array
	out     array
	edgeA   array
}

func (g *gatherSource) Reset(rng *rand.Rand) {
	g.rng = rng
	g.coldPos = 0
	g.isHot = make([]bool, g.edges)
	g.hotIdx = make([]int32, g.edges)
	nCold := 0
	for i := range g.isHot {
		if rng.Float64() < g.hotFrac {
			g.isHot[i] = true
			// Zipf-ish hub choice: squared uniform concentrates on few.
			u := rng.Float64()
			g.hotIdx[i] = int32(u * u * float64(g.hubs))
		} else {
			nCold++
		}
	}
	g.cold = perm32(nCold, rng)
	a := newArena()
	g.hot = a.array(g.hubs, mem.LineSize)
	g.coldA = a.array(nCold, mem.LineSize)
	g.out = a.array(g.edges/8+1, mem.LineSize)
	g.edgeA = a.array(g.edges, 4)
}

func (g *gatherSource) Steps() int { return g.edges }

func (g *gatherSource) Step(ei int, e *emitter) {
	e.load(e.pc, g.edgeA.at(ei)) // sequential edge stream
	var target mem.Addr
	if g.isHot[ei] {
		target = g.hot.at(int(g.hotIdx[ei]))
	} else {
		target = g.coldA.at(int(g.cold[g.coldPos]))
		g.coldPos++
	}
	if g.chase {
		e.chase(e.pc+8, target)
	} else {
		e.load(e.pc+8, target)
	}
	if g.writeTo && ei%8 == 7 {
		e.store(e.pc+16, g.out.at(ei/8))
	}
}

func (g *gatherSource) EndLap() {
	g.coldPos = 0
	if g.mutate > 0 {
		n := int(float64(len(g.cold)) * g.mutate)
		for i := 0; i < n; i++ {
			a := g.rng.Intn(len(g.cold))
			b := g.rng.Intn(len(g.cold))
			g.cold[a], g.cold[b] = g.cold[b], g.cold[a]
		}
	}
}

// bfsSource runs repeated BFS traversals from a fixed source: the vertex
// visit order is the BFS frontier order (each vertex once per lap —
// exactly the unique-per-iteration stream of real BFS), and each visit
// also streams the vertex's edge list.
type bfsSource struct {
	n      int
	avgDeg int

	g     *graph
	order []int32 // precomputed BFS vertex visit order
	dist  array
	edgeA array
}

func (b *bfsSource) Reset(rng *rand.Rand) {
	b.g = buildGraph(b.n, b.avgDeg, rng)
	a := newArena()
	b.dist = a.array(b.n, mem.LineSize)
	b.edgeA = a.array(len(b.g.edges), 4)
	b.order = bfsOrder(b.g, 0)
}

// bfsOrder returns the vertex visit order of a BFS from src, including
// unreached vertices appended in id order (GAP BFS re-seeds components).
func bfsOrder(g *graph, src int) []int32 {
	seen := make([]bool, g.n)
	// A vertex is visited in the order it is enqueued, so order is its own
	// FIFO queue: order[head:] are the enqueued vertices not yet visited.
	order := make([]int32, 0, g.n)
	for i := -1; i < g.n; i++ {
		root := src
		if i >= 0 {
			root = i
		}
		if seen[root] {
			continue
		}
		seen[root] = true
		order = append(order, int32(root))
		for head := len(order) - 1; head < len(order); head++ {
			v := order[head]
			for ei := g.offsets[v]; ei < g.offsets[v+1]; ei++ {
				if u := g.edges[ei]; !seen[u] {
					seen[u] = true
					order = append(order, u)
				}
			}
		}
	}
	return order
}

func (b *bfsSource) Steps() int { return len(b.order) }

func (b *bfsSource) Step(i int, e *emitter) {
	v := b.order[i]
	// The frontier-order dist access: irregular, once per vertex per
	// lap, identical order across laps.
	e.load(e.pc+8, b.dist.at(int(v)))
	for ei := b.g.offsets[v]; ei < b.g.offsets[v+1]; ei++ {
		e.load(e.pc, b.edgeA.at(int(ei)))
	}
}

func (b *bfsSource) EndLap() {}

func init() {
	register(Workload{
		Name: "pr", Suite: GAP, Irregular: true, nonMem: 2,
		Build: func(s Scale) LapSource {
			return &gatherSource{edges: s.size(160 << 10),
				hubs: s.size(8 << 10), hotFrac: 0.25, writeTo: true}
		},
	})
	register(Workload{
		Name: "cc", Suite: GAP, Irregular: true, nonMem: 2,
		Build: func(s Scale) LapSource {
			return &gatherSource{edges: s.size(128 << 10),
				hubs: s.size(6 << 10), hotFrac: 0.3, mutate: 0.01}
		},
	})
	register(Workload{
		Name: "bc", Suite: GAP, Irregular: true, nonMem: 2,
		Build: func(s Scale) LapSource {
			return &gatherSource{edges: s.size(112 << 10),
				hubs: s.size(6 << 10), hotFrac: 0.25, chase: true,
				writeTo: true}
		},
	})
	register(Workload{
		Name: "bfs", Suite: GAP, Irregular: true, nonMem: 2,
		Build: func(s Scale) LapSource {
			return &bfsSource{n: s.size(96 << 10), avgDeg: 4}
		},
	})
	register(Workload{
		Name: "tc", Suite: GAP, Irregular: true, nonMem: 2,
		Build: func(s Scale) LapSource {
			// Triangle counting: dense dependent gathers over a hotter
			// head (hub-hub edges dominate).
			return &gatherSource{edges: s.size(96 << 10),
				hubs: s.size(4 << 10), hotFrac: 0.4, chase: true}
		},
	})
	register(Workload{
		Name: "sssp", Suite: GAP, Irregular: true, nonMem: 3,
		Build: func(s Scale) LapSource {
			// SSSP's bucketed relaxations: BFS-like order with denser edges.
			return &bfsSource{n: s.size(72 << 10), avgDeg: 6}
		},
	})
}
