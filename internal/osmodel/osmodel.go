// Package osmodel implements the operating-system side of FlexTM's
// virtualization story (Section 5): transactions extend across context
// switches because their hardware state — signatures, CSTs, speculative
// lines, overflow table — is saved to virtual memory, summarized at the
// directory, and manipulated by software handlers.
//
// The pieces:
//
//   - Suspend unions the victim's Rsig/Wsig into the directory's summary
//     signatures (RSsig/WSsig), moves its TMI lines into its overflow
//     table, saves signatures/CSTs/OT, and issues the abort instruction so
//     the core is clean for the next thread.
//   - The L2 consults the summary signatures on every L1 miss; on a hit it
//     traps into this package's handler, which walks the conflict
//     management table (CMT), tests the saved per-thread signatures, and
//     either updates saved CSTs (lazy) or aborts the suspended transaction
//     (eager — avoiding LogTM-SE-style convoying).
//   - Committing transactions whose CSTs name a processor also peruse the
//     CMT for that processor and abort matching suspended transactions.
//   - Resume reinstalls the saved state on the same core and virtualizes
//     AOU by raising an alert so the thread re-examines and re-ALoads its
//     status word. Migration to a different core aborts and restarts.
//   - SpawnPreemptStorm drives Suspend/Resume from the fault injector's
//     Preempt class: the one OS preemption storm behind the chaos campaign
//     and the stress explorer.
package osmodel

import (
	"slices"

	"flextm/internal/core"
	"flextm/internal/cst"
	"flextm/internal/fault"
	"flextm/internal/memory"
	"flextm/internal/signature"
	"flextm/internal/sim"
	"flextm/internal/tmesi"
)

// Suspended is one descheduled transaction: a CMT entry.
type Suspended struct {
	HomeCore int
	TSW      memory.Addr
	Saved    *tmesi.SavedTxn
	handle   core.TxnHandle
}

// Manager is the OS-level virtualization state for one machine.
type Manager struct {
	sys   *tmesi.System
	rt    *core.Runtime
	eager bool

	// cmt is the conflict management table: active transaction list per
	// processor id, including suspended ones.
	cmt map[int][]*Suspended
}

// New returns a manager wired to sys and the FlexTM runtime rt. Eager mode
// resolves conflicts with suspended transactions by aborting the suspended
// side immediately.
func New(sys *tmesi.System, rt *core.Runtime) *Manager {
	m := &Manager{
		sys:   sys,
		rt:    rt,
		eager: rt.Mode() == core.Eager,
		cmt:   make(map[int][]*Suspended),
	}
	rt.SetOnAbortEnemy(m.abortSuspendedOn)
	return m
}

// Suspend saves core's transactional state (the thread being descheduled is
// parked at an operation boundary; ctx is its context, so the trap cost is
// charged to it). It returns nil when no transaction is live on the core.
func (m *Manager) Suspend(ctx *sim.Ctx, coreID int) *Suspended {
	tsw := m.rt.CurrentTSW(coreID)
	if tsw == 0 || !m.sys.TxnActive(coreID) {
		if m.sys.TxnActive(coreID) {
			// The thread was preempted inside its abort handler: the
			// descriptor is already dead but the hardware flash has not
			// happened yet. Finish the teardown so the next thread finds
			// a clean core; the thread's own AbortFlash on resume will
			// see an inactive core and skip.
			m.sys.AbortFlash(ctx, coreID)
		}
		return nil
	}
	s := &Suspended{
		HomeCore: coreID,
		TSW:      tsw,
		Saved:    m.sys.SaveTxnState(ctx, coreID),
		handle:   m.rt.DetachTxn(coreID),
	}
	m.cmt[coreID] = append(m.cmt[coreID], s)
	m.refreshSummary()
	return s
}

// Resume reinstates s on coreID. Rescheduling to the home core restores the
// saved hardware state; migration aborts the transaction (FlexTM's simple
// policy, since lazy versioning does not re-acquire written lines). Either
// way an alert is raised so the thread re-examines its status word.
func (m *Manager) Resume(ctx *sim.Ctx, coreID int, s *Suspended) {
	m.dropCMT(s)
	if coreID != s.HomeCore {
		// Migration: abort and restart.
		m.sys.ForceWord(s.TSW, core.TSWAborted)
		if s.Saved.OT != nil {
			s.Saved.OT.Discard()
		}
	} else {
		m.sys.RestoreTxnState(ctx, coreID, s.Saved)
		m.rt.AttachTxn(ctx, coreID, s.handle)
	}
	m.refreshSummary()
	m.sys.RaiseAlert(coreID, s.TSW)
}

func (m *Manager) dropCMT(s *Suspended) {
	list := m.cmt[s.HomeCore]
	for i, e := range list {
		if e == s {
			m.cmt[s.HomeCore] = append(list[:i], list[i+1:]...)
			return
		}
	}
}

// Suspended returns the number of CMT entries (for tests and diagnostics).
func (m *Manager) SuspendedCount() int {
	n := 0
	for _, l := range m.cmt {
		n += len(l)
	}
	return n
}

// refreshSummary recomputes RSsig/WSsig over all suspended transactions and
// installs them (with the trap handler) at the directory.
func (m *Manager) refreshSummary() {
	if m.SuspendedCount() == 0 {
		m.sys.InstallSummary(nil, nil, nil)
		return
	}
	rs := signature.New(m.sys.Config().Sig)
	ws := signature.New(m.sys.Config().Sig)
	for _, list := range m.cmt {
		for _, s := range list {
			rs.Union(s.Saved.Rsig)
			ws.Union(s.Saved.Wsig)
		}
	}
	m.sys.InstallSummary(rs, ws, m.trap)
}

// trap is the software handler the L2 invokes when an L1 miss hits the
// summary signatures. It mimics the hardware's per-thread behavior against
// the saved state.
func (m *Manager) trap(requestor int, line memory.LineAddr, write bool) []tmesi.Conflict {
	var out []tmesi.Conflict
	for home, list := range m.cmt {
		for _, s := range list {
			if m.sys.ReadWordRaw(s.TSW) != core.TSWActive {
				continue // already committed/aborted: no conflict
			}
			wHit := s.Saved.Wsig.Member(line)
			rHit := s.Saved.Rsig.Member(line)
			if !wHit && !(write && rHit) {
				continue
			}
			if m.eager {
				// Conflict management: FlexTM can abort suspended peers,
				// so running transactions never convoy behind them.
				m.sys.ForceWord(s.TSW, core.TSWAborted)
				if s.Saved.OT != nil {
					s.Saved.OT.Discard()
				}
				continue
			}
			// Lazy: record the conflict in both parties' CSTs, exactly as
			// the hardware would have.
			reqCST := m.sys.CST(requestor)
			if wHit {
				if write {
					reqCST.Set(cst.WW, home)
					s.Saved.CST.Set(cst.WW, requestor)
				} else {
					reqCST.Set(cst.RW, home)
					s.Saved.CST.Set(cst.WR, requestor)
				}
				out = append(out, tmesi.Conflict{Responder: home, Msg: tmesi.Threatened, Line: line, Suspended: true})
			} else {
				reqCST.Set(cst.WR, home)
				s.Saved.CST.Set(cst.RW, requestor)
				out = append(out, tmesi.Conflict{Responder: home, Msg: tmesi.ExposedRead, Line: line, Suspended: true})
			}
		}
	}
	return out
}

// abortSuspendedOn is the commit-time CMT perusal (Section 5): when a
// committing transaction aborts the processor named in its CSTs, suspended
// transactions from that processor must die too.
func (m *Manager) abortSuspendedOn(th *core.Thread, enemy int) {
	for _, s := range m.cmt[enemy] {
		m.sys.CAS(th.Ctx(), th.Core(), s.TSW, core.TSWActive, core.TSWAborted)
	}
}

// SpawnPreemptStorm adds the fault.Preempt driver to e: every quantum
// cycles it rolls inj and, on a hit, context-switches a victim worker out
// (saving and summarizing its transactional state via Suspend) for an
// injector-chosen hold time, then resumes it on its core. Transactions must
// survive the storm: suspended-transaction conflicts are caught by the
// summary signatures and arbitration of Section 5. workers[i] runs on core
// i; the caller sets done[i] when worker i finishes, and the storm stops
// once every worker has.
func (m *Manager) SpawnPreemptStorm(e *sim.Engine, inj *fault.Injector, quantum sim.Time, workers []*sim.Ctx, done []bool) {
	e.Spawn("preempt-storm", 0, func(ctx *sim.Ctx) {
		for slices.Contains(done, false) {
			ctx.Advance(quantum)
			ctx.Sync()
			if !inj.Fire(-1, fault.Preempt) {
				continue
			}
			victim := int(inj.Amount(fault.Preempt, uint64(len(workers)))) - 1
			if done[victim] {
				continue
			}
			var susp *Suspended
			parked := false
			e.RequestPark(workers[victim], func(v *sim.Ctx) {
				susp = m.Suspend(v, victim)
				parked = true
			})
			// Wait in virtual time for the victim to actually park; it may
			// finish its run instead, which is just as good.
			for !parked && !done[victim] {
				ctx.Advance(50)
				ctx.Sync()
			}
			if !parked {
				continue
			}
			hold := sim.Time(inj.Amount(fault.Preempt, 4*uint64(quantum)))
			ctx.Advance(hold)
			ctx.Sync()
			if susp != nil { // nil when the victim had no live transaction
				m.Resume(ctx, victim, susp)
			}
			e.Unblock(workers[victim], ctx.Now())
		}
	})
}
