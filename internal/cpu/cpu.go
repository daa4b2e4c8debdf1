// Package cpu provides the cycle-approximate out-of-order core timing model.
// It is not a microarchitectural simulator; it reproduces the two effects
// that turn cache misses into stalls: a finite reorder buffer bounds how far
// execution runs ahead of an outstanding miss (bounding memory-level
// parallelism), and issue width bounds throughput when memory is fast.
// Dependent loads (pointer chases) additionally serialize on the previous
// memory operation's completion — the behavior that makes temporal
// prefetching valuable.
package cpu

import (
	"streamline/internal/audit"
	"streamline/internal/mem"
)

// Config describes the core, per Table II (6-wide, 352-entry ROB).
type Config struct {
	Width int
	ROB   int
}

// DefaultConfig is the Ice-Lake-like core of Table II.
var DefaultConfig = Config{Width: 6, ROB: 352}

// robEntry records one in-flight memory operation.
type robEntry struct {
	done     uint64 // completion cycle
	instrIdx uint64 // cumulative instruction index at dispatch
}

// Core tracks one hardware context's timing state.
type Core struct {
	cfg   Config
	width mem.Divisor // cfg.Width, for Advance

	// fetchFP is the fetch-cycle clock in 1/256-cycle fixed point, so a
	// 6-wide core advances 256/6 per instruction without float drift.
	fetchFP uint64
	stall   uint64 // extra cycles accumulated from ROB-full stalls

	rob   []robEntry
	head  int
	count int

	instrs      uint64
	lastMemDone uint64 // completion of the most recent load (dependences)
	maxDone     uint64

	// lastIssue is the issue cycle handed out by the most recent BeginMem,
	// kept so the audit hook in EndMem can reject completions that precede
	// their own issue (a retired-before-issued operation).
	lastIssue uint64
	aud       *audit.Auditor
}

// SetAuditor attaches an invariant auditor (nil disables the hooks).
func (c *Core) SetAuditor(a *audit.Auditor) { c.aud = a }

// New returns a core with the given configuration.
func New(cfg Config) *Core {
	if cfg.Width <= 0 {
		cfg.Width = DefaultConfig.Width
	}
	if cfg.ROB <= 0 {
		cfg.ROB = DefaultConfig.ROB
	}
	return &Core{cfg: cfg, width: mem.NewDivisor(cfg.Width), rob: make([]robEntry, cfg.ROB/4+1)}
}

// Now returns the core's current front-end cycle.
func (c *Core) Now() uint64 { return c.fetchFP/256 + c.stall }

// Instructions returns the number of instructions executed so far.
func (c *Core) Instructions() uint64 { return c.instrs }

// Advance fetches n instructions, advancing the front-end clock at the
// configured width.
func (c *Core) Advance(n uint64) {
	c.instrs += n
	c.fetchFP += c.width.Div(n * 256)
}

// BeginMem dispatches a memory operation and returns the cycle at which it
// may issue, accounting for ROB-full stalls and (for dependent operations)
// the completion of the previous memory op.
func (c *Core) BeginMem(dependsOnPrev bool) uint64 {
	// Retire completed entries; stall if the ROB window is exhausted.
	for c.count > 0 {
		e := c.rob[c.head]
		if c.instrs-e.instrIdx < uint64(c.cfg.ROB) && c.count < len(c.rob) {
			break
		}
		// The head must retire before this op can dispatch: time jumps to
		// its completion if the front end got there first.
		if now := c.Now(); e.done > now {
			c.stall += e.done - now
		}
		if c.head++; c.head == len(c.rob) {
			c.head = 0
		}
		c.count--
	}
	t := c.Now()
	if dependsOnPrev && c.lastMemDone > t {
		t = c.lastMemDone
	}
	c.lastIssue = t
	return t
}

// EndMem records the completion of the memory operation begun at BeginMem.
// isLoad marks operations later instructions may depend on.
func (c *Core) EndMem(done uint64, isLoad bool) {
	if c.aud != nil {
		c.auditEndMem(c.aud, done)
	}
	tail := c.head + c.count // count <= len(rob): one wrap at most
	if tail >= len(c.rob) {
		tail -= len(c.rob)
	}
	c.rob[tail] = robEntry{done: done, instrIdx: c.instrs}
	if c.count < len(c.rob) {
		c.count++
	} else if c.head++; c.head == len(c.rob) {
		c.head = 0
	}
	if isLoad {
		c.lastMemDone = done
	}
	if done > c.maxDone {
		c.maxDone = done
	}
}

// Finish drains the pipeline and returns the total cycle count.
func (c *Core) Finish() uint64 {
	n := c.Now()
	if c.maxDone > n {
		return c.maxDone
	}
	return n
}

// IPC returns instructions per cycle over the whole run so far.
func (c *Core) IPC() float64 {
	cy := c.Finish()
	if cy == 0 {
		return 0
	}
	return float64(c.instrs) / float64(cy)
}
