package tmesi

import (
	"math/bits"

	"flextm/internal/cache"
	"flextm/internal/cst"
	"flextm/internal/fault"
	"flextm/internal/flight"
	"flextm/internal/memory"
	"flextm/internal/signature"
	"flextm/internal/sim"
	"flextm/internal/telemetry"
)

// reqKind is the coherence request type of Figure 1.
type reqKind int

const (
	reqGETS  reqKind = iota // ordinary load miss
	reqGETST                // transactional load miss (GETS from a txn)
	reqGETX                 // ordinary store/CAS miss or upgrade
	reqTGETX                // transactional store miss or upgrade
)

func (k reqKind) write() bool         { return k == reqGETX || k == reqTGETX }
func (k reqKind) transactional() bool { return k == reqGETST || k == reqTGETX }

// TLoad performs a transactional load: it updates Rsig and, when the line
// is threatened by a remote speculative writer, caches the committed value
// in the TI state (Figure 1).
func (s *System) TLoad(ctx *sim.Ctx, core int, a memory.Addr) OpResult {
	ctx.Sync()
	s.now = ctx.Now()
	s.stats.TLoads++
	c := &s.cores[core]
	res := s.watchCheck(core, a, false)
	line := a.Line()
	lat := s.cfg.L1Hit

	if ln := c.l1.Lookup(line); ln != nil {
		s.stats.L1Hits++
		c.rsig.Insert(line)
		res.Val = ln.Data[a.Offset()]
		ctx.Advance(lat)
		return res
	}
	s.stats.L1Misses++

	if data, ok, otLat := s.otFetch(c, core, line); ok {
		lat += otLat + s.insertLine(c, core, cache.Line{Tag: line, State: cache.TMI, Data: data})
		c.rsig.Insert(line)
		res.Val = data[a.Offset()]
		ctx.Advance(lat)
		return res
	} else {
		lat += otLat
	}

	lat += s.l2Round() + s.drainStallLat(ctx, core, line)
	pr := s.probe(core, line, reqGETST)
	lat += pr.lat + s.fillLat(line)

	var data memory.LineData
	s.image.ReadLine(line, &data)
	st := cache.Exclusive
	if pr.threatened {
		st = cache.TI
		s.tel.Inc(core, telemetry.CtrTIEnter)
	} else if pr.copiesRemain {
		st = cache.Shared
	}
	lat += s.insertLine(c, core, cache.Line{Tag: line, State: st, Data: data})
	c.rsig.Insert(line)
	res.Val = data[a.Offset()]
	res.Conflicts = pr.conflicts
	ctx.Advance(lat)
	return res
}

// Load performs an ordinary (non-transactional) load. A threatened line's
// committed value is returned uncached, so the read serializes before the
// speculative writer (Section 3.5).
func (s *System) Load(ctx *sim.Ctx, core int, a memory.Addr) OpResult {
	ctx.Sync()
	s.now = ctx.Now()
	s.stats.Loads++
	c := &s.cores[core]
	res := s.watchCheck(core, a, false)
	line := a.Line()
	lat := s.cfg.L1Hit

	if ln := c.l1.Lookup(line); ln != nil {
		s.stats.L1Hits++
		res.Val = ln.Data[a.Offset()]
		ctx.Advance(lat)
		return res
	}
	s.stats.L1Misses++

	if data, ok, otLat := s.otFetch(c, core, line); ok {
		lat += otLat + s.insertLine(c, core, cache.Line{Tag: line, State: cache.TMI, Data: data})
		res.Val = data[a.Offset()]
		ctx.Advance(lat)
		return res
	} else {
		lat += otLat
	}

	lat += s.l2Round() + s.drainStallLat(ctx, core, line)
	pr := s.probe(core, line, reqGETS)
	lat += pr.lat + s.fillLat(line)

	var data memory.LineData
	s.image.ReadLine(line, &data)
	res.Val = data[a.Offset()]
	if !pr.threatened {
		st := cache.Exclusive
		if pr.copiesRemain {
			st = cache.Shared
		}
		lat += s.insertLine(c, core, cache.Line{Tag: line, State: st, Data: data})
	}
	ctx.Advance(lat)
	return res
}

// TStore performs a transactional store: the line moves to TMI in the local
// L1, Wsig is updated, and remote readers/writers observe Threatened
// responses on their subsequent coherence requests.
func (s *System) TStore(ctx *sim.Ctx, core int, a memory.Addr, v uint64) OpResult {
	ctx.Sync()
	s.now = ctx.Now()
	s.stats.TStores++
	c := &s.cores[core]
	res := s.watchCheck(core, a, true)
	line := a.Line()
	lat := s.cfg.L1Hit

	if ln := c.l1.Lookup(line); ln != nil {
		s.stats.L1Hits++
		switch ln.State {
		case cache.TMI:
			// Already speculative: silent upgrade.
		case cache.Modified:
			// First TStore to an M line writes the latest non-speculative
			// version back to the L2 so remote Loads stay correct.
			s.image.WriteLine(line, &ln.Data)
			s.l2.Touch(line)
			lat += s.netLat() + s.cfg.L2Hit
			ln.State = cache.TMI
			s.tel.Inc(core, telemetry.CtrTMIEnter)
		case cache.Exclusive:
			ln.State = cache.TMI // silent: directory already thinks E
			s.tel.Inc(core, telemetry.CtrTMIEnter)
		case cache.Shared, cache.TI:
			// Upgrade requires a TGETX so other sharers are invalidated
			// and conflicts are detected.
			lat += s.l2Round()
			pr := s.probe(core, line, reqTGETX)
			lat += pr.lat
			res.Conflicts = pr.conflicts
			ln.State = cache.TMI
			s.holders.add(line, core) // see ensureExclusive
			s.tel.Inc(core, telemetry.CtrTMIEnter)
		}
		ln.Data[a.Offset()] = v
		c.wsig.Insert(line)
		ctx.Advance(lat)
		return res
	}
	s.stats.L1Misses++

	if data, ok, otLat := s.otFetch(c, core, line); ok {
		data[a.Offset()] = v
		lat += otLat + s.insertLine(c, core, cache.Line{Tag: line, State: cache.TMI, Data: data})
		c.wsig.Insert(line)
		ctx.Advance(lat)
		return res
	} else {
		lat += otLat
	}

	lat += s.l2Round() + s.drainStallLat(ctx, core, line)
	pr := s.probe(core, line, reqTGETX)
	lat += pr.lat + s.fillLat(line)

	var data memory.LineData
	s.image.ReadLine(line, &data)
	data[a.Offset()] = v
	s.tel.Inc(core, telemetry.CtrTMIEnter)
	lat += s.insertLine(c, core, cache.Line{Tag: line, State: cache.TMI, Data: data})
	c.wsig.Insert(line)
	res.Conflicts = pr.conflicts
	ctx.Advance(lat)
	return res
}

// Store performs an ordinary store. If it conflicts with a remote
// transaction's read or write set, that transaction is aborted via the
// strong-isolation hook, so the store serializes before the (retried)
// transaction.
func (s *System) Store(ctx *sim.Ctx, core int, a memory.Addr, v uint64) OpResult {
	ctx.Sync()
	s.now = ctx.Now()
	s.stats.Stores++
	res := s.watchCheck(core, a, true)
	lat, ln := s.ensureExclusive(ctx, core, a.Line())
	ln.Data[a.Offset()] = v
	ctx.Advance(lat)
	return res
}

// CAS performs an ordinary atomic compare-and-swap, returning the previous
// value and whether the swap happened. The TM runtimes use it for status
// words, lock words, and version clocks.
func (s *System) CAS(ctx *sim.Ctx, core int, a memory.Addr, old, new uint64) (OpResult, bool) {
	ctx.Sync()
	s.now = ctx.Now()
	s.stats.Stores++
	res := s.watchCheck(core, a, true)
	lat, ln := s.ensureExclusive(ctx, core, a.Line())
	cur := ln.Data[a.Offset()]
	res.Val = cur
	ok := cur == old
	if ok {
		ln.Data[a.Offset()] = new
	}
	ctx.Advance(lat)
	return res, ok
}

// FetchAdd atomically adds delta to the word at a and returns the prior
// value (used by the TL2 baseline's global version clock).
func (s *System) FetchAdd(ctx *sim.Ctx, core int, a memory.Addr, delta uint64) uint64 {
	ctx.Sync()
	s.now = ctx.Now()
	s.stats.Stores++
	lat, ln := s.ensureExclusive(ctx, core, a.Line())
	old := ln.Data[a.Offset()]
	ln.Data[a.Offset()] = old + delta
	ctx.Advance(lat)
	return old
}

// ensureExclusive brings a.Line() into the local cache in M state,
// invalidating remote copies and applying strong isolation, and returns the
// resident line. The caller charges the returned latency.
func (s *System) ensureExclusive(ctx *sim.Ctx, core int, line memory.LineAddr) (sim.Time, *cache.Line) {
	c := &s.cores[core]
	lat := s.cfg.L1Hit
	if ln := c.l1.Lookup(line); ln != nil {
		s.stats.L1Hits++
		switch ln.State {
		case cache.Modified, cache.TMI:
			// TMI: an ordinary store inside a transaction to a line the
			// same transaction has TStored updates the speculative copy.
			return lat, ln
		case cache.Exclusive:
			ln.State = cache.Modified
			return lat, ln
		case cache.Shared, cache.TI:
			lat += s.l2Round()
			pr := s.probe(core, line, reqGETX)
			lat += pr.lat
			ln.State = cache.Modified
			// A hook's ForceWord (strong isolation, or the summary trap)
			// may have invalidated this very copy mid-probe; the upgrade
			// revives it, so the holder bit ForceWord cleared comes back.
			s.holders.add(line, core)
			return lat, ln
		}
	}
	s.stats.L1Misses++
	if data, ok, otLat := s.otFetch(c, core, line); ok {
		// Own overflowed speculative line: restore as TMI and write into it.
		lat += otLat + s.insertLine(c, core, cache.Line{Tag: line, State: cache.TMI, Data: data})
		return lat, c.l1.Lookup(line)
	} else {
		lat += otLat
	}
	lat += s.l2Round() + s.drainStallLat(ctx, core, line)
	pr := s.probe(core, line, reqGETX)
	lat += pr.lat + s.fillLat(line)
	var data memory.LineData
	s.image.ReadLine(line, &data)
	lat += s.insertLine(c, core, cache.Line{Tag: line, State: cache.Modified, Data: data})
	return lat, c.l1.Lookup(line)
}

// fpAux maps a false-positive verdict onto the flight-record Aux bit.
func fpAux(fp bool) uint8 {
	if fp {
		return flight.AuxFP
	}
	return 0
}

// probeResult summarizes one forwarding round.
type probeResult struct {
	conflicts    []Conflict
	threatened   bool
	copiesRemain bool // a valid remote copy remains after the round (S vs E)
	lat          sim.Time
}

// probe models the directory forwarding a request to the other L1
// controllers, which test their signatures and adjust their cache state per
// Figure 1, updating CSTs on both sides. Only holders and transactional
// cores are visited (the package comment's holder index). The masks are
// read once per round: a core that loses its copy or leaves transactional
// mode during the round (through the strong-isolation hook) is still
// visited, and its L1 and signature state, read at the visit, decide what
// it does, as in a broadcast.
func (s *System) probe(core int, line memory.LineAddr, kind reqKind) probeResult {
	var pr probeResult
	c := &s.cores[core]
	probed := false
	held := s.holdersOf(line)
	visit := (held | s.active) &^ coreBit(core)
	var key signature.Key
	keyed := false
	s.census.Rounds++

	for rest := visit; rest != 0; rest &= rest - 1 {
		r := bits.TrailingZeros64(rest)
		rc := &s.cores[r]
		s.census.Visits++
		var rln *cache.Line
		if held&coreBit(r) != 0 {
			s.census.Lookups++
			rln = s.lookupHolder(r, line)
		}
		active := s.active&coreBit(r) != 0
		if active && !keyed {
			key.Reset(s.cfg.Sig, line)
			keyed = true
		}
		sigW := active && rc.wsig.MemberKey(&key)
		sigR := active && rc.rsig.MemberKey(&key)
		// Injected Bloom aliasing: force the responder's write signature to
		// claim membership for a line it never inserted. Sound by the same
		// argument as a natural false positive — signatures are allowed to
		// over-approximate — so the protocol must absorb the spurious
		// Threatened response, CST bits, or strong-isolation abort.
		injW := false
		if active && !sigW && s.inj.Fire(core, fault.SigFalsePos) {
			sigW = true
			injW = true
			s.tel.Inc(r, telemetry.CtrFaultInjected)
		}
		if s.tel != nil && active {
			// Split this round's membership tests into true conflicts and
			// Bloom aliasing, attributed to the signature's owner.
			s.classifySig(r, rc.wsig, line, sigW)
			s.classifySig(r, rc.rsig, line, sigR)
		}
		if rln == nil && !sigW && !sigR {
			continue
		}
		// False-positive lineage for the causal tracer: an injected alias is
		// spurious by construction; otherwise audit mode (when enabled) gives
		// ground truth on whether the signature hit was Bloom aliasing.
		fpW := injW || (sigW && !injW && rc.wsig.AuditEnabled() && !rc.wsig.Inserted(line))
		fpR := sigR && rc.rsig.AuditEnabled() && !rc.rsig.Inserted(line)
		if rln == nil {
			s.census.NonHolder++
			if rc.rsig.AuditEnabled() && (!sigW || fpW) && (!sigR || fpR) {
				s.census.NonHolderAlias++
			}
		}
		probed = true
		s.stats.Probes++
		s.tel.Inc(core, telemetry.CtrProbes)

		// Sticky sharers: a processor whose active transaction's signature
		// covers the line stays on the directory's sharer list even after
		// silently evicting its copy (Section 4.1), so a read miss must
		// not be granted Exclusive — a later silent E->TMI upgrade would
		// bypass conflict detection.
		if (kind == reqGETS || kind == reqGETST) && (sigR || sigW) {
			pr.copiesRemain = true
		}

		// Signature-based response and CST exchange (Figure 1's table).
		switch kind {
		case reqGETS, reqGETST:
			if sigW {
				pr.threatened = true
				s.stats.ThreatenedResponses++
				s.tel.Inc(core, telemetry.CtrThreatened)
				pr.conflicts = append(pr.conflicts, Conflict{Responder: r, Msg: Threatened, Line: line, FP: fpW})
				if kind == reqGETST {
					rc.table.Set(cst.WR, core)
					c.table.Set(cst.RW, r)
					s.tel.Inc(r, telemetry.CtrCSTSet)
					s.tel.Inc(core, telemetry.CtrCSTSet)
					s.fl.Rec(core, s.now, flight.CSTSet, r, uint8(cst.RW)|fpAux(fpW), line)
				}
			}
		case reqTGETX:
			if sigW {
				pr.threatened = true
				s.stats.ThreatenedResponses++
				s.tel.Inc(core, telemetry.CtrThreatened)
				pr.conflicts = append(pr.conflicts, Conflict{Responder: r, Msg: Threatened, Line: line, FP: fpW})
				rc.table.Set(cst.WW, core)
				c.table.Set(cst.WW, r)
				s.tel.Inc(r, telemetry.CtrCSTSet)
				s.tel.Inc(core, telemetry.CtrCSTSet)
				s.fl.Rec(core, s.now, flight.CSTSet, r, uint8(cst.WW)|fpAux(fpW), line)
			} else if sigR {
				s.stats.ExposedReadResponses++
				s.tel.Inc(core, telemetry.CtrExposedRead)
				pr.conflicts = append(pr.conflicts, Conflict{Responder: r, Msg: ExposedRead, Line: line, FP: fpR})
				rc.table.Set(cst.RW, core)
				c.table.Set(cst.WR, r)
				s.tel.Inc(r, telemetry.CtrCSTSet)
				s.tel.Inc(core, telemetry.CtrCSTSet)
				s.fl.Rec(core, s.now, flight.CSTSet, r, uint8(cst.WR)|fpAux(fpR), line)
			}
		case reqGETX:
			if sigW || sigR {
				s.stats.StrongIsolationAborts++
				s.tel.Inc(r, telemetry.CtrStrongIsoAbort)
				if s.strongIsolationHook != nil {
					s.strongIsolationHook(r)
				}
			}
		}

		// Cache-state action at the responder.
		if rln == nil {
			continue
		}
		switch kind {
		case reqGETS, reqGETST:
			switch rln.State {
			case cache.Modified:
				s.image.WriteLine(line, &rln.Data)
				s.l2.Touch(line)
				rln.State = cache.Shared
				pr.copiesRemain = true
			case cache.Exclusive:
				rln.State = cache.Shared
				pr.copiesRemain = true
			case cache.Shared:
				pr.copiesRemain = true
			case cache.TMI, cache.TI:
				// Speculative writers keep their copy; TI holders remain
				// sharers of the committed version.
				pr.copiesRemain = true
			}
		case reqTGETX:
			switch rln.State {
			case cache.Modified:
				s.image.WriteLine(line, &rln.Data)
				s.l2.Touch(line)
				s.invalidateLine(rc, r, rln)
			case cache.Exclusive, cache.Shared, cache.TI:
				s.invalidateLine(rc, r, rln)
			case cache.TMI:
				// Multiple owners: each speculative writer keeps its copy.
			}
		case reqGETX:
			if rln.State == cache.Modified {
				s.image.WriteLine(line, &rln.Data)
				s.l2.Touch(line)
			}
			// Strong isolation already doomed any speculative owner, so
			// even TMI copies are dropped.
			s.invalidateLine(rc, r, rln)
		}
	}

	// Summary-signature check for descheduled transactions (Section 5):
	// the L2 consults RSsig/WSsig on every L1 miss and traps to software on
	// a hit.
	if s.summaryHook != nil {
		hitW := s.summaryW != nil && s.summaryW.Member(line)
		hitR := s.summaryR != nil && s.summaryR.Member(line)
		if (hitW || hitR) && !kind.write() {
			// Cores Summary: the directory keeps descheduled processors on
			// the sharer list for lines their summary signatures cover, so
			// the line cannot be granted Exclusive — a silent E->M or
			// E->TMI upgrade would bypass the summary check.
			pr.copiesRemain = true
		}
		if hitW || (kind.write() && hitR) {
			s.stats.SummaryTraps++
			s.tel.Inc(core, telemetry.CtrSummaryTrap)
			pr.lat += s.cfg.TrapLat
			cs := s.summaryHook(core, line, kind.write())
			for _, cf := range cs {
				if cf.Msg == Threatened {
					pr.threatened = true
				}
			}
			pr.conflicts = append(pr.conflicts, cs...)
		}
	}

	if probed {
		pr.lat += s.probeRound()
		// Injected coherence delay: one responder's reply is late (queueing,
		// link contention), stretching the whole parallel round since the
		// requestor must collect every response.
		if s.inj.Fire(core, fault.CoherenceDelay) {
			pr.lat += sim.Time(s.inj.Amount(fault.CoherenceDelay, uint64(s.cfg.MemLat)))
			s.tel.Inc(core, telemetry.CtrFaultInjected)
		}
	}
	return pr
}

// invalidateLine drops a remote copy, firing an AOU alert if the line
// carried the A bit. owner is rc's core index (for telemetry attribution).
func (s *System) invalidateLine(rc *coreState, owner int, rln *cache.Line) {
	if rln.Alert {
		rc.alerts.MarkRemoved()
		if s.inj.Fire(owner, fault.AlertLoss) {
			// Injected alert loss: the invalidation happens but the trap is
			// dropped. The owner's doomed transaction keeps running until the
			// CAS-Commit backstop (the TSW check) discards it — the paper's
			// correctness argument does not depend on timely alert delivery.
			s.tel.Inc(owner, telemetry.CtrFaultInjected)
		} else {
			rc.alerts.Enqueue(rln.Tag)
			s.stats.Alerts++
			s.tel.Inc(owner, telemetry.CtrAlert)
			s.fl.Rec(owner, s.now, flight.AOUAlert, -1, 0, rln.Tag)
		}
	}
	rln.State = cache.Invalid
	rln.Alert = false
	s.holders.drop(rln.Tag, owner)
}

// otFetch checks the core's overflow table for line and fetches it back on
// a hit. It returns the extra latency of the Osig/table walk.
func (s *System) otFetch(c *coreState, core int, line memory.LineAddr) (memory.LineData, bool, sim.Time) {
	if c.ot == nil || !c.ot.MayContain(line) {
		return memory.LineData{}, false, 0
	}
	walkLat := s.cfg.OTAccess
	if s.inj.Fire(core, fault.OTStall) {
		// Injected walk stall: the controller's table walk contends with
		// other traffic (TLB refill, memory-controller occupancy).
		walkLat += sim.Time(s.inj.Amount(fault.OTStall, uint64(4*s.cfg.OTAccess)))
		s.tel.Inc(core, telemetry.CtrFaultInjected)
	}
	if data, ok := c.ot.LookupInvalidate(line); ok {
		s.stats.OTFetches++
		s.tel.Inc(core, telemetry.CtrOTWalkHit)
		return data, true, walkLat
	}
	// Osig false positive: the walk happened but found nothing.
	s.tel.Inc(core, telemetry.CtrOTWalkFalse)
	return memory.LineData{}, false, walkLat
}

// insertLine installs a line in core's L1, handling spills from the victim
// buffer: M lines write back, TMI lines overflow to the OT, others drop.
func (s *System) insertLine(c *coreState, core int, ln cache.Line) sim.Time {
	var lat sim.Time
	s.holders.add(ln.Tag, core)
	// Insert returns the L1's reused spill buffer; nothing below inserts
	// into this L1 again, so the loop finishes with it before it changes.
	for _, v := range c.l1.Insert(ln) {
		sp := v.Line
		if sp.State != cache.Invalid {
			// An L1 holds at most one valid copy of a line (Insert refuses
			// resident lines), so core no longer holds this one.
			s.holders.drop(sp.Tag, core)
		}
		if sp.Alert {
			c.alerts.MarkRemoved()
			if s.inj.Fire(core, fault.AlertLoss) {
				// Injected alert loss on A-line eviction (see invalidateLine).
				s.tel.Inc(core, telemetry.CtrFaultInjected)
			} else {
				// Conservative: losing an alert-marked line raises the alert.
				c.alerts.Enqueue(sp.Tag)
				s.stats.Alerts++
				s.tel.Inc(core, telemetry.CtrAlert)
				s.fl.Rec(core, s.now, flight.AOUAlert, -1, 0, sp.Tag)
			}
		}
		switch sp.State {
		case cache.Modified:
			s.image.WriteLine(sp.Tag, &sp.Data)
			s.l2.Touch(sp.Tag)
		case cache.TMI:
			if c.ot == nil {
				// First overflow: trap to the OS to allocate the OT and
				// fill the controller registers.
				c.ot = overflowNew(s.cfg)
				s.stats.OTAllocs++
				s.tel.Inc(core, telemetry.CtrOTAlloc)
				lat += s.cfg.TrapLat
			}
			if c.ot.Insert(sp.Tag, sp.Tag, sp.Data) {
				lat += s.cfg.TrapLat // way overflow: OS expands the table
				s.tel.Inc(core, telemetry.CtrOTExpand)
			}
			lat += s.cfg.OTAccess
			s.stats.Overflows++
			s.tel.Inc(core, telemetry.CtrOTSpill)
			s.fl.Rec(core, s.now, flight.OTSpill, -1, 0, sp.Tag)
		}
	}
	return lat
}

// fillLat returns the latency beyond the L2 access needed to obtain the
// line's data (DRAM on an L2 tag miss).
func (s *System) fillLat(line memory.LineAddr) sim.Time {
	hit, _, _ := s.l2.Touch(line)
	if hit {
		return 0
	}
	s.stats.L2Misses++
	return s.cfg.MemLat
}

// drainStallLat stalls an access that targets a line covered by some other
// core's in-progress committed-OT copy-back (the request is NACKed until
// copy-back completes, Section 4.1).
func (s *System) drainStallLat(ctx *sim.Ctx, core int, line memory.LineAddr) sim.Time {
	var stall sim.Time
	for r := range s.cores {
		if r == core {
			continue
		}
		rc := &s.cores[r]
		if rc.drainSig != nil && rc.drainUntil > ctx.Now()+stall && rc.drainSig.Member(line) {
			stall = rc.drainUntil - ctx.Now()
		}
	}
	return stall
}

// watchCheck implements FlexWatcher's local access monitoring (Table 4a):
// with the signature activated, every local load tests the read signature
// and every local store the write signature, reporting a hit for the
// software handler.
func (s *System) watchCheck(core int, a memory.Addr, write bool) OpResult {
	c := &s.cores[core]
	if !c.sigWatch {
		return OpResult{}
	}
	line := a.Line()
	if write {
		if c.wsig.Member(line) {
			return OpResult{WatchHit: true}
		}
	} else if c.rsig.Member(line) {
		return OpResult{WatchHit: true}
	}
	return OpResult{}
}
