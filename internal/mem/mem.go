// Package mem defines the basic memory-system vocabulary shared by every
// component of the simulator: byte addresses, cache-line addresses, program
// counters, and the access records that flow through the cache hierarchy.
package mem

import (
	"fmt"
	"math"
	"math/bits"
)

// Cache-line geometry. The entire simulator assumes 64-byte lines, matching
// the configuration in Table II of the paper.
const (
	LineShift = 6
	LineSize  = 1 << LineShift // bytes per cache line
)

// Addr is a byte address in the simulated physical address space.
type Addr uint64

// Line is a cache-line address (a byte address with the offset bits removed).
// Prefetcher metadata correlates Line values, never byte addresses.
type Line uint64

// PC identifies the load/store instruction that issued an access. Temporal
// prefetchers localize their training per PC.
type PC uint64

// LineOf returns the cache line containing the byte address a.
func LineOf(a Addr) Line { return Line(a >> LineShift) }

// AddrOf returns the base byte address of line l.
func AddrOf(l Line) Addr { return Addr(l) << LineShift }

// Offset returns the byte offset of a within its cache line.
func Offset(a Addr) uint64 { return uint64(a) & (LineSize - 1) }

// Kind distinguishes the flavors of traffic observed by a cache level.
type Kind uint8

const (
	// Load is a demand data read.
	Load Kind = iota
	// Store is a demand data write.
	Store
	// Ifetch is an instruction fetch.
	Ifetch
	// Prefetch is a hardware prefetch request.
	Prefetch
	// Writeback is a dirty eviction propagating downward.
	Writeback
	// MetaRead is a temporal-prefetcher metadata read served by the LLC.
	MetaRead
	// MetaWrite is a temporal-prefetcher metadata write served by the LLC.
	MetaWrite
)

// String returns the conventional short name of the access kind.
func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case Ifetch:
		return "ifetch"
	case Prefetch:
		return "prefetch"
	case Writeback:
		return "writeback"
	case MetaRead:
		return "meta-read"
	case MetaWrite:
		return "meta-write"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// IsDemand reports whether the access kind is demand traffic (loads, stores,
// instruction fetches), as opposed to prefetch or metadata traffic.
func (k Kind) IsDemand() bool { return k == Load || k == Store || k == Ifetch }

// IsMeta reports whether the access kind is prefetcher-metadata traffic.
func (k Kind) IsMeta() bool { return k == MetaRead || k == MetaWrite }

// Access is a single memory reference presented to a cache level.
type Access struct {
	PC   PC
	Addr Addr
	Kind Kind
	Core int
}

// Line returns the cache line touched by the access.
func (a Access) Line() Line { return LineOf(a.Addr) }

// HashLine64 mixes a cache-line address into a full 64-bit hash using the
// splitmix64 finalizer (cheap, well-distributed, deterministic). Consumers
// that need several independent hash functions of the same line — a set
// index, a trigger tag, a partial tag — must slice DISJOINT bit ranges of
// this value; masking the same value to different widths yields correlated
// hashes.
func HashLine64(l Line) uint64 {
	x := uint64(l)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashLine hashes a cache-line address into nbits bits. It is the shared
// trigger-hash used by the on-chip temporal prefetchers: Triage, Triangel,
// and Streamline all store hashed (not full) trigger addresses, accepting a
// small aliasing probability in exchange for compact metadata.
func HashLine(l Line, nbits uint) uint64 {
	return HashLine64(l) & ((1 << nbits) - 1)
}

// HashPC hashes a program counter into nbits bits, used for compact PC
// signatures in samplers and perceptron features.
func HashPC(pc PC, nbits uint) uint64 {
	x := uint64(pc) * 0x9e3779b97f4a7c15
	x ^= x >> 29
	return x & ((1 << nbits) - 1)
}

// Divisor divides by a value fixed at construction without a hardware divide
// on the per-record path: it returns ⌊m·(n+1)/2⁶⁴⌋ for the round-down
// reciprocal m = ⌊(2⁶⁴−1)/d⌋. That falls short of (n+1)/d by at most (n+1)/2⁶⁴,
// so while (n+1)·d ≤ 2⁶⁴, which n < m guarantees, it lies in [n/d, (n+1)/d) and
// its floor is ⌊n/d⌋ exactly (Lemire's fastdiv in the increment variant: no
// special case for d = 1 or a power of two). Larger operands divide.
type Divisor struct{ d, m uint64 }

// NewDivisor returns the divisor d; a d of zero panics, dividing by it.
func NewDivisor(d int) Divisor { return Divisor{uint64(d), math.MaxUint64 / uint64(d)} }

// Div returns n / d.
func (r Divisor) Div(n uint64) uint64 {
	if n < r.m {
		q, _ := bits.Mul64(r.m, n+1)
		return q
	}
	return n / r.d
}

// DivMod returns n / d and n % d.
func (r Divisor) DivMod(n uint64) (q, rem uint64) { q = r.Div(n); return q, n - q*r.d }

// Mod returns n % d.
func (r Divisor) Mod(n uint64) uint64 { return n - r.Div(n)*r.d }

// RateLimiter models a throughput-limited resource (a cache port, a DRAM
// channel or bank) as a fluid of work accumulated in coarse time buckets.
// Each access charges its occupancy cost to the bucket its timestamp falls
// in; once a bucket exceeds capacity, further accesses in it are delayed
// into the spill. Because the bucket is addressed by the access's own
// timestamp, the model is insensitive to arrival order — prefetch chains
// stamped ahead of the demands that trigger them cannot stall unrelated
// earlier-stamped work, which next-free ratchet models get badly wrong.
type RateLimiter struct {
	// shift is log2 of the bucket width in cycles; capacity is the work (in
	// cycles of occupancy) a bucket absorbs. Both are set by NewRateLimiter
	// only: a zero-value limiter has no capacity and Charge panics on it.
	shift    uint
	capacity uint64

	epochs [8]uint64
	load   [8]uint64
}

// NewRateLimiter returns a limiter whose buckets are bucketCycles wide and
// absorb capacity cycles of occupancy each. The width must be a power of two
// so that Charge, which every port, channel and bank access pays, locates a
// bucket with a shift instead of a division.
func NewRateLimiter(bucketCycles, capacity uint64) RateLimiter {
	if bucketCycles == 0 || bucketCycles&(bucketCycles-1) != 0 {
		panic(fmt.Sprintf("mem: rate limiter bucket width %d is not a power of two", bucketCycles))
	}
	return RateLimiter{shift: uint(bits.TrailingZeros64(bucketCycles)), capacity: capacity}
}

// Charge records cost cycles of occupancy at time now and returns the
// queueing delay the access suffers.
func (r *RateLimiter) Charge(now, cost uint64) uint64 {
	e := now >> r.shift
	b := e % uint64(len(r.load))
	if r.epochs[b] != e {
		r.epochs[b] = e
		r.load[b] = 0
	}
	r.load[b] += cost
	if r.load[b] <= r.capacity {
		return 0
	}
	excess := r.load[b] - r.capacity
	return (e+1)<<r.shift - now + excess<<r.shift/r.capacity
}
