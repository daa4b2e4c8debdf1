package sim

import (
	"streamline/internal/cache"
	"streamline/internal/mem"
	"streamline/internal/prefetch"
	"streamline/internal/telemetry"
	"streamline/internal/trace"
)

// coreAddrStride separates the cores' address spaces so identical workloads
// on different cores never share lines in the LLC.
const coreAddrStride mem.Addr = 1 << 44

// accuracyEpoch is how often (in L2 prefetch fills) epoch accuracy is fed to
// accuracy-consuming prefetchers, matching Streamline's 2048-prefetch epochs.
const accuracyEpoch = 2048

// step executes one trace record on core cs. At the end of the trace it
// rewinds the trace and reads on; it returns false when the rewound trace is
// empty too.
func (s *System) step(cs *coreState) bool {
	if cs.pos == len(cs.recs) {
		if cs.recs, cs.pos = cs.tr.NextChunk(), 0; len(cs.recs) == 0 {
			cs.tr.Reset()
			if cs.recs = cs.tr.NextChunk(); len(cs.recs) == 0 {
				return false
			}
		}
	}
	rec := &cs.recs[cs.pos] // read-only: the run belongs to the trace
	cs.pos++

	cs.core.Advance(rec.Instructions())
	t := cs.core.BeginMem(rec.DependsOnPrev)

	kind := mem.Load
	if rec.IsWrite {
		kind = mem.Store
	}
	acc := mem.Access{PC: rec.PC, Addr: rec.Addr + coreAddrStride*mem.Addr(cs.id), Kind: kind, Core: cs.id}
	lat := s.demandAccess(cs, t, acc)

	done := t + lat
	if rec.IsWrite {
		// Stores retire through the store buffer: the core does not wait
		// for the miss, but the hierarchy state and traffic are real.
		done = t + s.cfg.L1D.Latency
	}
	cs.core.EndMem(done, !rec.IsWrite)
	return true
}

// demandAccess walks the hierarchy for a demand access beginning at cycle t
// and returns its latency. Fills propagate upward; prefetchers train at
// their attach levels and their requests are issued before returning.
//
// The L1D's ports are never charged: a demand charge costs a demand nothing,
// and prefetch and metadata traffic reaches only the L2 and LLC ports, so no
// access would ever wait on the L1D's.
func (s *System) demandAccess(cs *coreState, t uint64, acc mem.Access) uint64 {
	// ---- L1D
	r1 := cs.l1d.Lookup(t, acc)
	if r1.Hit {
		s.trainL1(cs, t, acc, true)
		return s.cfg.L1D.Latency + r1.ExtraWait
	}
	now := t + s.cfg.L1D.Latency // tag check before descending
	// The miss holds an L1 MSHR until its fill returns; the true fill time
	// is recorded below once known.
	l1slot, l1delay := cs.l1d.MSHRReserve(now)
	now += l1delay

	// ---- L2
	now += cs.l2.PortDelay(now, true)
	r2 := cs.l2.Lookup(now, acc)
	if r2.Hit {
		done := now + s.cfg.L2.Latency + r2.ExtraWait
		s.fillL1(cs, acc, done)
		s.trainL1(cs, now, acc, false)
		s.trainL2(cs, now, acc, true, r2.WasPrefetched)
		cs.l1d.MSHRComplete(l1slot, done)
		return done - t
	}
	l2slot, l2delay := cs.l2.MSHRReserve(now)
	now += l2delay

	// ---- LLC (shared)
	now += s.llc.PortDelay(now, true)
	if cs.llcObs != nil {
		cs.llcObs.ObserveLLCData(s.llc.SetOf(acc.Line()), acc.Line())
	}
	r3 := s.llc.Lookup(now, acc)
	if r3.Hit {
		done := now + s.cfg.LLC.Latency + r3.ExtraWait
		cs.l2.MSHRComplete(l2slot, done)
		s.fillL2(cs, acc, done)
		s.fillL1(cs, acc, done)
		s.trainL1(cs, now, acc, false)
		s.trainL2(cs, now, acc, false, false)
		cs.l1d.MSHRComplete(l1slot, done)
		return done - t
	}
	now += s.cfg.LLC.Latency

	// ---- DRAM
	dlat := s.dram.Access(now, acc.Line(), false)
	done := now + dlat
	cs.l2.MSHRComplete(l2slot, done)
	s.fillLLC(cs, acc, now, done)
	s.fillL2(cs, acc, done)
	s.fillL1(cs, acc, done)
	s.trainL1(cs, now, acc, false)
	s.trainL2(cs, now, acc, false, false)
	cs.l1d.MSHRComplete(l1slot, done)
	return done - t
}

// fillL1 installs a line into the core's L1D, handling the victim. The
// victim's writeback is issued at the fill's request time, not completion:
// the eviction happens when the miss allocates.
func (s *System) fillL1(cs *coreState, acc mem.Access, ready uint64) {
	v := cs.l1d.Fill(acc, ready, cache.SrcDemand)
	if v.Valid && v.Dirty {
		s.writeback(cs, ready-s.cfg.L1D.Latency, v.Line, 2)
	}
}

func (s *System) fillL2(cs *coreState, acc mem.Access, ready uint64) {
	v := cs.l2.Fill(acc, ready, cache.SrcDemand)
	if v.Valid && v.Dirty {
		s.writeback(cs, ready-s.cfg.L2.Latency, v.Line, 3)
	}
}

func (s *System) fillLLC(cs *coreState, acc mem.Access, now, ready uint64) {
	v := s.llc.Fill(acc, ready, cache.SrcDemand)
	if v.Valid && v.Dirty {
		s.dram.Write(now, v.Line)
	}
}

// writeback propagates a dirty eviction to the given level (2=L2, 3=LLC).
// If the line is absent there it falls through to the DRAM write buffer.
func (s *System) writeback(cs *coreState, now uint64, l mem.Line, level int) {
	if level <= 2 {
		if cs.l2.MarkDirty(l) {
			return
		}
		level = 3
	}
	if level == 3 {
		if s.llc.MarkDirty(l) {
			return
		}
	}
	s.dram.Write(now, l)
}

// trainL1 feeds the L1D prefetcher and issues its requests (fill into L1D).
func (s *System) trainL1(cs *coreState, now uint64, acc mem.Access, hit bool) {
	ev := prefetch.Event{
		Now: now, PC: acc.PC, Addr: acc.Addr,
		IsStore: acc.Kind == mem.Store, Hit: hit,
	}
	cs.reqBuf = cs.l1pf.Train(ev, cs.reqBuf[:0])
	for _, req := range cs.reqBuf {
		s.issuePrefetch(cs, now+req.Delay, req, cache.SrcL1)
	}
}

// trainL2 feeds the L2 regular prefetcher on every L2 access and the
// temporal prefetcher on misses and prefetch hits (its training events).
func (s *System) trainL2(cs *coreState, now uint64, acc mem.Access, hit, prefetchHit bool) {
	ev := prefetch.Event{
		Now: now, PC: acc.PC, Addr: acc.Addr,
		IsStore: acc.Kind == mem.Store, Hit: hit, PrefetchHit: prefetchHit,
	}
	cs.reqBuf = cs.l2pf.Train(ev, cs.reqBuf[:0])
	for _, req := range cs.reqBuf {
		s.issuePrefetch(cs, now+req.Delay, req, cache.SrcL2)
	}
	if !hit || prefetchHit {
		cs.reqBuf = cs.tempf.Train(ev, cs.reqBuf[:0])
		for _, req := range cs.reqBuf {
			s.issuePrefetch(cs, now+req.Delay, req, cache.SrcTemporal)
		}
		s.feedAccuracy(cs, now)
	}
}

// issuePrefetch resolves a prefetch request into fills, attributing the
// line's lifecycle to the issuing prefetcher src: L1 requests fill the L1D
// (bypassing the L2); L2 and temporal requests fill only the L2. Requests
// whose line is already resident at the destination are dropped as
// duplicates (per-source accounting, no traffic).
func (s *System) issuePrefetch(cs *coreState, now uint64, req prefetch.Request, src cache.Source) {
	if a := s.cfg.Audit; a != nil && mem.Offset(req.Addr) != 0 {
		a.Reportf(now, "sim", "unaligned-prefetch",
			"core %d issued prefetch for %#x (offset %d within the line)",
			cs.id, uint64(req.Addr), mem.Offset(req.Addr))
	}
	toL1 := src == cache.SrcL1
	acc := mem.Access{PC: 0, Addr: req.Addr, Kind: mem.Prefetch, Core: cs.id}
	if toL1 {
		if cs.l1d.Probe(acc.Line()) {
			// Already in the L1: a duplicate whether or not the L2 also
			// holds it.
			cs.droppedBy[src]++
			return
		}
		if r, ok := cs.l2.LookupResident(now, acc); ok {
			// Promote from L2 to L1 in the same tag walk that confirmed
			// residency (the lookup updates the L2's replacement and
			// prefetch-hit state). If the L2 copy is itself still in
			// flight, the promoted L1 copy cannot be ready before it —
			// carry the ExtraWait forward like the demand L2-hit path
			// does, or the L1 line's readyAt is backdated and the wait a
			// demand hit would observe there is silently dropped.
			done := now + s.cfg.L2.Latency + r.ExtraWait
			v := cs.l1d.Fill(acc, done, src)
			if v.Valid && v.Dirty {
				s.writeback(cs, now, v.Line, 2)
			}
			cs.issued++
			cs.issuedBy[src]++
			return
		}
	} else if cs.l2.Probe(acc.Line()) {
		cs.droppedBy[src]++
		return
	}
	cs.issued++
	cs.issuedBy[src]++

	// Walk the lower hierarchy to find the data. Prefetch misses occupy
	// L2 MSHRs like demand misses do, but yield the ports to demands.
	now += cs.l2.PortDelay(now, false)
	now += s.cfg.L2.Latency
	l2slot, l2delay := cs.l2.MSHRReserve(now)
	now += l2delay
	var done uint64
	now += s.llc.PortDelay(now, false)
	r3 := s.llc.Lookup(now, acc)
	if r3.Hit {
		done = now + s.cfg.LLC.Latency + r3.ExtraWait
	} else {
		now += s.cfg.LLC.Latency
		dlat := s.dram.Access(now, acc.Line(), false)
		done = now + dlat
		v := s.llc.Fill(acc, done, src)
		if v.Valid && v.Dirty {
			s.dram.Write(now, v.Line)
		}
	}
	cs.l2.MSHRComplete(l2slot, done)
	if toL1 {
		// L1 prefetches bypass the L2: filling it would pollute the L2's
		// prefetch-accuracy accounting (demands are absorbed by the L1
		// copy) and its capacity.
		v := cs.l1d.Fill(acc, done, src)
		if v.Valid && v.Dirty {
			s.writeback(cs, now, v.Line, 2)
		}
		return
	}
	v := cs.l2.Fill(acc, done, src)
	if v.Valid && v.Dirty {
		s.writeback(cs, now, v.Line, 3)
	}
}

// feedAccuracy delivers epoch prefetch accuracy to prefetchers that consume
// it (Streamline's utility-aware partitioner). now is the training cycle,
// used only to timestamp the telemetry event.
func (s *System) feedAccuracy(cs *coreState, now uint64) {
	if cs.accObs == nil {
		return
	}
	fills := cs.l2.Stats.PrefetchFills
	if fills-cs.lastFills < accuracyEpoch {
		return
	}
	useful := cs.l2.Stats.UsefulPrefetches
	df := fills - cs.lastFills
	du := useful - cs.lastUseful
	cs.lastFills, cs.lastUseful = fills, useful
	if df > 0 {
		acc := cache.Accuracy(du, df)
		cs.accObs.ObserveAccuracy(acc)
		if cs.tel.Enabled(telemetry.Info) {
			cs.tel.Eventf(now, telemetry.Info, "accuracy-epoch",
				"delivered epoch accuracy %.4f (%d useful / %d fills)", acc, du, df)
		}
	}
}

// pickNext scans for the unfinished core with the earliest clock (lowest
// index on ties) and the runner-up among the remaining cores. Stepping
// advances only the chosen core's clock, so the choice stays valid — with
// no rescanning — until it stops beating the runner-up.
func (s *System) pickNext() (next, runnerUp *coreState) {
	for _, cs := range s.cores {
		if cs.done || cs.tr == nil {
			continue
		}
		switch {
		case next == nil:
			next = cs
		case cs.core.Now() < next.core.Now():
			next, runnerUp = cs, next
		case runnerUp == nil || cs.core.Now() < runnerUp.core.Now():
			runnerUp = cs
		}
	}
	return next, runnerUp
}

// stillEarliest reports whether a fresh scan would pick next again: it
// still strictly beats the runner-up, or ties it with a lower index.
func stillEarliest(next, runnerUp *coreState) bool {
	if runnerUp == nil {
		return true
	}
	a, b := next.core.Now(), runnerUp.core.Now()
	return a < b || (a == b && next.id < runnerUp.id)
}

// Run drives all cores until each has executed warmup+measure instructions,
// interleaving them by current cycle time so contention is modeled, and
// returns the measured-phase results. It is a fresh Engine driven to
// completion, so one-shot and stepped execution share one code path.
func (s *System) Run() Result {
	return s.Engine().Finish()
}

// RunTrace is the single-core convenience: attach tr to core 0 and Run.
func (s *System) RunTrace(tr trace.Trace) Result {
	s.SetTrace(0, tr)
	return s.Run()
}
