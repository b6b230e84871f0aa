package tmesi

import (
	"math/bits"

	"flextm/internal/cache"
	"flextm/internal/cst"
	"flextm/internal/fault"
	"flextm/internal/flight"
	"flextm/internal/memory"
	"flextm/internal/overflow"
	"flextm/internal/signature"
	"flextm/internal/sim"
	"flextm/internal/telemetry"
)

// CommitOutcome is the result of a CAS-Commit.
type CommitOutcome int

const (
	// CommitOK: the status word was swapped and all speculative state was
	// flash-committed.
	CommitOK CommitOutcome = iota
	// CommitAborted: the status word no longer held the expected value (an
	// enemy aborted us); speculative state was flash-discarded.
	CommitAborted
	// CommitCSTFail: W-R or W-W was non-zero (new conflicts arrived);
	// nothing changed and the software Commit() loop should re-run
	// (Figure 3, line 5).
	CommitCSTFail
)

// CASCommit implements the paper's CAS-Commit instruction on core's own
// transaction status word at address tsw. On success the controller
// atomically swaps the TSW, flash-commits TMI lines to M, drops TI lines,
// drains a committed overflow table, and clears signatures and CSTs.
func (s *System) CASCommit(ctx *sim.Ctx, core int, tsw memory.Addr, old, new uint64) CommitOutcome {
	return s.casCommit(ctx, core, tsw, old, new, true)
}

// CASCommitNoCST is CASCommit without the W-R/W-W emptiness check. RTM-style
// hardware (AOU + PDI only, no conflict summary tables) publishes its
// speculative state this way; conflict safety is software's responsibility.
func (s *System) CASCommitNoCST(ctx *sim.Ctx, core int, tsw memory.Addr, old, new uint64) CommitOutcome {
	return s.casCommit(ctx, core, tsw, old, new, false)
}

func (s *System) casCommit(ctx *sim.Ctx, core int, tsw memory.Addr, old, new uint64, checkCST bool) CommitOutcome {
	ctx.Sync()
	s.now = ctx.Now()
	c := &s.cores[core]
	lat, ln := s.ensureExclusive(ctx, core, tsw.Line())

	if ln.Data[tsw.Offset()] != old {
		// An enemy changed the TSW (aborted us): revert speculative lines.
		s.tel.Inc(core, telemetry.CtrCommitAborted)
		s.flashAbortLocked(c, core)
		ctx.Advance(lat)
		return CommitAborted
	}
	if checkCST && !c.table.Enemies().Empty() {
		// Unresolved W-R/W-W conflicts: hardware refuses the commit.
		s.stats.CASCommitCSTFails++
		s.tel.Inc(core, telemetry.CtrCommitCSTFail)
		s.fl.Rec(core, s.now, flight.CommitRefused, -1, 0, tsw.Line())
		ctx.Advance(lat)
		return CommitCSTFail
	}
	if checkCST && s.inj.Fire(core, fault.CommitRace) {
		// Injected CAS-Commit interleaving race: a conflicting response
		// arrives in the window between the CST read and the commit point,
		// so the instruction refuses exactly as if the CST had been set.
		// Software's Figure 3 loop must re-run; the runtime's commit-retry
		// budget bounds how long an (injected) streak can spin before the
		// attempt is converted into an abort and fed to the watchdog.
		s.stats.CASCommitCSTFails++
		s.tel.Inc(core, telemetry.CtrCommitCSTFail)
		s.tel.Inc(core, telemetry.CtrFaultInjected)
		s.fl.Rec(core, s.now, flight.CommitRefused, -1, 1, tsw.Line())
		ctx.Advance(lat)
		return CommitCSTFail
	}

	ln.Data[tsw.Offset()] = new
	s.stats.FlashCommits++
	s.tel.Inc(core, telemetry.CtrCommitOK)
	s.tel.Add(core, telemetry.CtrFlashCommitLines, uint64(c.l1.FlashCommit()))

	if c.ot != nil && c.ot.Count() == 0 {
		// Every overflowed line was fetched back before commit: nothing to
		// copy, but the Osig must still be scrubbed or its accumulated
		// bits would charge false table walks to every future miss.
		c.ot.Discard()
	}
	if c.ot != nil && c.ot.Count() > 0 {
		// Micro-coded copy-back: committed lines stream from the OT to
		// their natural locations. The committing core overlaps this with
		// useful work, but peers touching the drained lines stall behind
		// it (modeled by the drain window).
		n := c.ot.Count()
		c.ot.SetCommitted()
		s.tel.Add(core, telemetry.CtrOTDrainLine, uint64(n))
		drained := signature.New(s.cfg.Sig)
		c.ot.Drain(func(phys, logical memory.LineAddr, data memory.LineData) {
			s.image.WriteLine(phys, &data)
			s.l2.Touch(phys)
			drained.Insert(phys)
		})
		c.drainSig = drained
		c.drainUntil = ctx.Now() + lat + sim.Time(n)*s.cfg.DrainPerLine
		lat += s.cfg.OTAccess // controller kick-off; streaming is off the critical path
	}

	s.endTxn(c, core)
	ctx.Advance(lat)
	return CommitOK
}

// AbortFlash implements the abort instruction: it reverts all TMI and TI
// lines, clears the signatures, CSTs, and OT registers, and leaves
// transactional mode. The runtime invokes it from the abort handler.
func (s *System) AbortFlash(ctx *sim.Ctx, core int) {
	ctx.Sync()
	c := &s.cores[core]
	s.flashAbortLocked(c, core)
	ctx.Advance(s.cfg.L1Hit)
}

func (s *System) flashAbortLocked(c *coreState, core int) {
	s.stats.FlashAborts++
	s.tel.Add(core, telemetry.CtrFlashAbortLines, uint64(c.l1.FlashAbort()))
	if c.ot != nil {
		c.ot.Discard()
	}
	s.endTxn(c, core)
}

// endTxn clears the per-transaction hardware state.
func (s *System) endTxn(c *coreState, core int) {
	c.rsig.Clear()
	c.wsig.Clear()
	c.table.ClearAll()
	s.active &^= coreBit(core)
	if c.alerts.Marks() > 0 {
		c.l1.ClearAlerts()
	}
	c.alerts.Reset()
}

// ALoad marks the line holding a with the AOU 'A' bit, fetching it if
// absent; a subsequent remote invalidation or update delivers an alert
// (Section 3.4).
func (s *System) ALoad(ctx *sim.Ctx, core int, a memory.Addr) OpResult {
	res := s.Load(ctx, core, a)
	c := &s.cores[core]
	s.tel.Inc(core, telemetry.CtrALoad)
	if ln := c.l1.Lookup(a.Line()); ln != nil {
		if !ln.Alert {
			ln.Alert = true
			c.alerts.MarkAdded()
		}
	} else {
		// The line could not be cached (threatened): conservatively raise
		// the alert immediately so software re-examines the word.
		c.alerts.Enqueue(a.Line())
		s.stats.Alerts++
		s.tel.Inc(core, telemetry.CtrAlert)
		s.fl.Rec(core, s.now, flight.AOUAlert, -1, 0, a.Line())
	}
	return res
}

// AClear removes the A bit from the line holding a, if present.
func (s *System) AClear(core int, a memory.Addr) {
	c := &s.cores[core]
	if ln := c.l1.Lookup(a.Line()); ln != nil && ln.Alert {
		ln.Alert = false
		c.alerts.MarkRemoved()
	}
}

// TakeAlert consumes a pending AOU alert for core, returning the alerted
// line. The runtime polls it at operation boundaries, which models alert
// delivery at the next instruction edge.
func (s *System) TakeAlert(core int) (memory.LineAddr, bool) {
	c := &s.cores[core]
	if s.inj.Fire(core, fault.SpuriousAlert) {
		// Injected spurious delivery: either a duplicate of the last alert
		// (hardware re-raising a trap it already delivered) or an alert on
		// an unrelated line. Software must treat alerts as hints: re-examine
		// the status word and re-arm, never assume one alert == one event.
		s.tel.Inc(core, telemetry.CtrFaultInjected)
		s.stats.Alerts++
		if last, ok := c.alerts.LastDelivered(); ok {
			return last, true
		}
		return 0, true
	}
	return c.alerts.Take()
}

// AlertPending reports whether core has an undelivered alert.
func (s *System) AlertPending(core int) bool { return s.cores[core].alerts.Pending() }

// ForceWord performs a hardware-level coherent write used by trap handlers
// (strong isolation, OS virtualization): it invalidates every cached copy
// of the word's line — firing AOU alerts — and updates the committed image.
// It charges no latency; callers are inside an operation that already paid.
func (s *System) ForceWord(a memory.Addr, v uint64) {
	line := a.Line()
	for rest := s.holdersOf(line); rest != 0; rest &= rest - 1 {
		r := bits.TrailingZeros64(rest)
		if rln := s.lookupHolder(r, line); rln != nil {
			if rln.State == cache.Modified {
				s.image.WriteLine(line, &rln.Data)
			}
			s.invalidateLine(&s.cores[r], r, rln)
		}
	}
	s.image.WriteWord(a, v)
}

// ReadWordRaw returns the current coherent value of a word without timing
// or state effects: it checks M/TMI copies first, then the image. Intended
// for handlers and assertions, not for the simulated-program path.
func (s *System) ReadWordRaw(a memory.Addr) uint64 {
	line := a.Line()
	for rest := s.holdersOf(line); rest != 0; rest &= rest - 1 {
		if rln := s.lookupHolder(bits.TrailingZeros64(rest), line); rln != nil && rln.State == cache.Modified {
			return rln.Data[a.Offset()]
		}
	}
	return s.image.ReadWord(a)
}

// SetSigWatch turns FlexWatcher-style local access monitoring on or off for
// core (Table 4a's "activate" instruction).
func (s *System) SetSigWatch(core int, on bool) { s.cores[core].sigWatch = on }

// WatchInsert adds a line to core's read or write signature for monitoring
// purposes (Table 4a's "insert" with Sig = Rsig or Wsig).
func (s *System) WatchInsert(core int, a memory.Addr, write bool) {
	c := &s.cores[core]
	if write {
		c.wsig.Insert(a.Line())
	} else {
		c.rsig.Insert(a.Line())
	}
}

// ClearSigs zeroes core's signatures (Table 4a's "clear").
func (s *System) ClearSigs(core int) {
	c := &s.cores[core]
	c.rsig.Clear()
	c.wsig.Clear()
}

// SaveTxnState captures the hardware transactional state of core for a
// context switch (Section 5): TMI lines move to the overflow table, and the
// signatures, CSTs, and OT are detached and returned. The core is left
// clean, as after an abort instruction, but the speculative state survives
// in the returned OT.
type SavedTxn struct {
	Rsig, Wsig *signature.Sig
	CST        cst.Table
	OT         *overflow.Table
}

// SaveTxnState implements the OS-visible deschedule sequence.
func (s *System) SaveTxnState(ctx *sim.Ctx, core int) *SavedTxn {
	c := &s.cores[core]
	// Move speculative lines into the OT so they survive the cache flush.
	for _, line := range c.l1.TMILines() {
		if c.ot == nil {
			c.ot = overflowNew(s.cfg)
			s.stats.OTAllocs++
		}
		if ln := c.l1.Lookup(line); ln != nil {
			c.ot.Insert(line, line, ln.Data)
			ln.State = cache.Invalid
			s.holders.drop(line, core)
		}
		s.stats.Overflows++
	}
	saved := &SavedTxn{
		Rsig: c.rsig.Clone(),
		Wsig: c.wsig.Clone(),
		CST:  c.table.Snapshot(),
		OT:   c.ot,
	}
	c.ot = nil
	// Abort instruction: revert remaining speculative lines (TI), clear
	// signatures and CSTs so the next thread starts clean.
	c.l1.FlashAbort()
	s.endTxn(c, core)
	ctx.Advance(s.cfg.TrapLat)
	return saved
}

// RestoreTxnState reinstates a saved transaction's hardware state on core
// (rescheduling to the same processor, Section 5). Speculative data remains
// in the OT and is fetched back on demand via the Osig.
func (s *System) RestoreTxnState(ctx *sim.Ctx, core int, saved *SavedTxn) {
	c := &s.cores[core]
	c.rsig.CopyFrom(saved.Rsig)
	c.wsig.CopyFrom(saved.Wsig)
	c.table.Restore(saved.CST)
	c.ot = saved.OT
	s.active |= coreBit(core)
	ctx.Advance(s.cfg.TrapLat)
}

func overflowNew(cfg Config) *overflow.Table {
	return overflow.New(cfg.OTSets, cfg.OTWays, cfg.Sig)
}

// RaiseAlert enqueues a synthetic AOU alert for core on a's line. The OS
// uses it to virtualize alert-on-update across context switches: a resumed
// thread must re-examine (and re-ALoad) its status word.
func (s *System) RaiseAlert(core int, a memory.Addr) {
	s.cores[core].alerts.Enqueue(a.Line())
	s.stats.Alerts++
	s.tel.Inc(core, telemetry.CtrAlert)
	s.fl.Rec(core, s.now, flight.AOUAlert, -1, 0, a.Line())
}

// RemapLine implements the OS side of a page remap for one line
// (Section 4.1, "Virtual Memory Paging"): when a logical page moves to a
// different physical frame, the OS tests each thread's Rsig, Wsig, and
// Osig for the old address and, where present, adds the new one (Bloom
// filters cannot delete) and retags overflow-table entries.
func (s *System) RemapLine(core int, oldLine, newLine memory.LineAddr) {
	c := &s.cores[core]
	if c.rsig.Member(oldLine) {
		c.rsig.Insert(newLine)
	}
	if c.wsig.Member(oldLine) {
		c.wsig.Insert(newLine)
	}
	if c.ot != nil {
		c.ot.RetagPhysical(oldLine, newLine)
	}
	// Invalidate any cached copy of the old frame: the mapping is gone.
	// TMI data has already been moved to the OT by the unmap flush.
	if ln := c.l1.Lookup(oldLine); ln != nil {
		s.invalidateLine(c, core, ln)
	}
}

// FlushTMIToOT moves core's speculative lines for the given page lines into
// its overflow table (the unmap step of Section 4.1: invalidations
// forwarded to the L1 push TMI lines to the OT where the OS can see them).
func (s *System) FlushTMIToOT(core int, lines []memory.LineAddr) {
	c := &s.cores[core]
	for _, line := range lines {
		ln := c.l1.Lookup(line)
		if ln == nil || ln.State != cache.TMI {
			continue
		}
		if c.ot == nil {
			c.ot = overflowNew(s.cfg)
			s.stats.OTAllocs++
		}
		c.ot.Insert(line, line, ln.Data)
		ln.State = cache.Invalid
		s.holders.drop(line, core)
		s.stats.Overflows++
	}
}
