// Package rtmf implements the RTM-F baseline: a hardware-accelerated STM in
// the style of RTM (Shriraman et al., ISCA 2007). It uses two of FlexTM's
// hardware primitives — alert-on-update for conflict notification and
// programmable data isolation for versioning — but, unlike FlexTM, it keeps
// conflict detection in software metadata: every object carries a header
// word that writers acquire with a CAS and readers ALoad for change
// notification.
//
// The paper measures RTM-F's residual per-access bookkeeping at 40-60% of
// execution time; here those costs arise from the same simulated header
// loads, CASes, and ALoads.
package rtmf

import (
	"flextm/internal/baselines/driver"
	"flextm/internal/memory"
	"flextm/internal/sim"
	"flextm/internal/tmapi"
	"flextm/internal/tmesi"
)

const ownerMask = 0xFF

// Runtime is an RTM-F instance.
type Runtime struct {
	driver.Tally
	sys     *tmesi.System
	headers driver.Headers
	status  *driver.StatusRing
	arb     *driver.Arbiter
}

// New returns an RTM-F runtime over sys with the Polka contention manager.
func New(sys *tmesi.System) *Runtime {
	rt := &Runtime{
		Tally:   driver.NewTally(sys.Config().Cores),
		sys:     sys,
		headers: driver.NewHeaders(sys),
		status:  driver.NewStatusRing(sys, nil),
	}
	rt.arb = driver.NewArbiter(rt.status)
	return rt
}

// Name implements tmapi.Runtime.
func (rt *Runtime) Name() string { return "RTM-F" }

// Bind implements tmapi.Runtime.
func (rt *Runtime) Bind(ctx *sim.Ctx, core int) tmapi.Thread {
	th := &thread{rt: rt, readHdr: make(map[memory.Addr]int), writeHdr: make(map[memory.Addr]bool)}
	th.Thread = rt.Tally.Thread(ctx, core, 0xF17, th, txn{th})
	return th
}

type readEntry struct {
	hdr memory.Addr
	ver uint64
}

type writeEntry struct {
	hdr memory.Addr
	ver uint64
}

type thread struct {
	driver.Thread
	rt *Runtime

	status   memory.Addr
	reads    []readEntry
	readHdr  map[memory.Addr]int // header addr -> reads index
	writes   []writeEntry
	writeHdr map[memory.Addr]bool
}

func (th *thread) Load(a memory.Addr) uint64 {
	return th.rt.sys.Load(th.Ctx(), th.Core(), a).Val
}
func (th *thread) Store(a memory.Addr, v uint64) {
	th.rt.sys.Store(th.Ctx(), th.Core(), a, v)
}

// Begin implements driver.Protocol.
func (th *thread) Begin() {
	rt, sys := th.rt, th.rt.sys
	th.status = rt.status.Begin(&th.Thread)
	sys.ALoad(th.Ctx(), th.Core(), th.status)
	rt.arb.Karma[th.Core()] = 0
	th.reads = th.reads[:0]
	clear(th.readHdr)
	th.writes = th.writes[:0]
	clear(th.writeHdr)
	sys.BeginTxn(th.Core())
	th.Work(40) // register checkpoint
	th.checkAlert()
}

// Rollback implements driver.Protocol: drop the speculative cache state
// and release acquired headers so peers stop seeing us as owner.
func (th *thread) Rollback() {
	sys := th.rt.sys
	if sys.TxnActive(th.Core()) {
		sys.AbortFlash(th.Ctx(), th.Core())
	}
	th.release()
}

// release restores every acquired header's pre-acquire version.
func (th *thread) release() {
	for _, we := range th.writes {
		th.Store(we.hdr, we.ver)
	}
	th.Work(30)
}

// Backoff implements driver.Protocol.
func (th *thread) Backoff(n int) sim.Time { return th.rt.arb.RetryBackoff(&th.Thread, n) }

// checkAlert handles AOU alerts: a changed status word means we were
// aborted; a changed read-set header means a writer acquired an object we
// read, which RTM-F's handler arbitrates.
func (th *thread) checkAlert() {
	sys := th.rt.sys
	line, ok := sys.TakeAlert(th.Core())
	if !ok {
		return
	}
	if th.Load(th.status) == driver.Aborted {
		driver.Abort()
	}
	if line == th.status.Line() {
		sys.ALoad(th.Ctx(), th.Core(), th.status) // spurious: re-arm
		return
	}
	// A watched header changed: re-read it and arbitrate.
	hdrAddr := line.WordOf(0)
	i, tracked := th.readHdr[hdrAddr]
	if !tracked {
		return
	}
	h := th.Load(hdrAddr)
	if h == th.reads[i].ver {
		sys.ALoad(th.Ctx(), th.Core(), hdrAddr) // false alarm (eviction): re-arm
		return
	}
	if owner := h & ownerMask; owner != 0 && !th.writeHdr[hdrAddr] {
		th.conflictWithOwner(int(owner-1), hdrAddr, i)
		return
	}
	// Version advanced: the writer committed; our read is stale.
	driver.Abort()
}

// conflictWithOwner arbitrates an eager read-write conflict detected via
// AOU on a header in our read set.
func (th *thread) conflictWithOwner(enemy int, hdrAddr memory.Addr, readIx int) {
	for attempt := 0; ; attempt++ {
		th.rt.arb.Arbitrate(&th.Thread, enemy, attempt, 0)
		h := th.Load(hdrAddr)
		if h&ownerMask == 0 {
			if h == th.reads[readIx].ver {
				th.rt.sys.ALoad(th.Ctx(), th.Core(), hdrAddr)
				return // enemy aborted; our read still valid
			}
			driver.Abort() // enemy committed; stale read
		}
		if attempt > driver.Patience {
			driver.Abort()
		}
	}
}

// Hardware acceleration removes cloning and validation, but RTM-F still
// runs software open barriers (the paper's residual 40-60%% bookkeeping).
const (
	openROWork = 20
	openRWWork = 30
)

// openRO records and ALoads the header of a line on first read.
func (th *thread) openRO(line memory.LineAddr) {
	hdr := th.rt.headers.Of(line)
	if _, ok := th.readHdr[hdr]; ok || th.writeHdr[hdr] {
		return
	}
	th.Work(openROWork)
	for attempt := 0; ; attempt++ {
		h := th.Load(hdr)
		th.checkAlert()
		owner := h & ownerMask
		if owner == 0 || int(owner-1) == th.Core() {
			th.reads = append(th.reads, readEntry{hdr: hdr, ver: h})
			th.readHdr[hdr] = len(th.reads) - 1
			th.rt.sys.ALoad(th.Ctx(), th.Core(), hdr)
			th.checkAlert()
			break
		}
		th.contendOnOpen(int(owner-1), attempt)
	}
	th.rt.arb.Karma[th.Core()]++
}

// openRW acquires the header of a line on first write.
func (th *thread) openRW(line memory.LineAddr) {
	hdr := th.rt.headers.Of(line)
	if th.writeHdr[hdr] {
		return
	}
	th.Work(openRWWork)
	for attempt := 0; ; attempt++ {
		h := th.Load(hdr)
		th.checkAlert()
		owner := h & ownerMask
		if owner == 0 {
			if _, ok := th.rt.sys.CAS(th.Ctx(), th.Core(), hdr, h, h|uint64(th.Core()+1)); ok {
				// Record before anything that can panic, or the header
				// would stay acquired forever after an abort.
				th.writes = append(th.writes, writeEntry{hdr: hdr, ver: h})
				th.writeHdr[hdr] = true
				th.checkAlert()
				break
			}
			th.checkAlert()
			continue
		}
		if int(owner-1) == th.Core() {
			th.writeHdr[hdr] = true
			break
		}
		th.contendOnOpen(int(owner-1), attempt)
	}
	th.rt.arb.Karma[th.Core()]++
}

// contendOnOpen arbitrates a write-write (or write-after-read) conflict
// found while opening an object.
func (th *thread) contendOnOpen(enemy int, attempt int) {
	th.rt.arb.Arbitrate(&th.Thread, enemy, attempt, 64)
	th.checkAlert()
	if attempt > driver.Patience {
		driver.Abort()
	}
}

// Commit implements driver.Protocol: CAS the status word, flash-commit the
// PDI state, bump and release headers.
func (th *thread) Commit() bool {
	if th.rt.sys.CASCommitNoCST(th.Ctx(), th.Core(), th.status, driver.Active, driver.Committed) == tmesi.CommitAborted {
		th.release() // speculative cache state already reverted
		return false
	}
	for _, we := range th.writes {
		th.Store(we.hdr, we.ver+(1<<8))
	}
	return true
}

// txn adapts the thread to tmapi.Txn: data accesses use PDI (TLoad/TStore),
// metadata in ordinary coherent memory.
type txn struct{ th *thread }

// Load implements tmapi.Txn.
func (t txn) Load(a memory.Addr) uint64 {
	th := t.th
	th.openRO(a.Line())
	v := th.rt.sys.TLoad(th.Ctx(), th.Core(), a).Val
	th.checkAlert()
	return v
}

// Store implements tmapi.Txn.
func (t txn) Store(a memory.Addr, v uint64) {
	th := t.th
	th.openRW(a.Line())
	th.rt.sys.TStore(th.Ctx(), th.Core(), a, v)
	th.checkAlert()
}

// Abort implements tmapi.Txn.
func (t txn) Abort() { panic(tmapi.AbortError{UserRequested: true}) }
