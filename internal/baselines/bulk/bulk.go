// Package bulk implements a Bulk/TCC-flavored lazy HTM baseline (Ceze et
// al., ISCA 2006; Hammond et al., ISCA 2004): lazy versioning in the cache
// (it reuses the PDI states), with conflicts detected only at commit by
// broadcasting the committer's write signature to every other processor,
// and commits serialized by a global token.
//
// This is the design point the paper positions FlexTM against: "FlexTM
// enables lazy conflict management without commit tokens [14], broadcast of
// write sets [6,14], or ticket-based serialization [7]". The token makes
// commit a global bottleneck and the signature comparison aborts on false
// positives; FlexTM's CSTs avoid both.
package bulk

import (
	"flextm/internal/baselines/driver"
	"flextm/internal/memory"
	"flextm/internal/signature"
	"flextm/internal/sim"
	"flextm/internal/tmapi"
	"flextm/internal/tmesi"
)

// Runtime is a Bulk-style instance.
type Runtime struct {
	driver.Tally
	sys    *tmesi.System
	token  memory.Addr // global commit token
	status *driver.StatusRing
}

// New returns a Bulk-style runtime over sys.
func New(sys *tmesi.System) *Runtime {
	rt := &Runtime{Tally: driver.NewTally(sys.Config().Cores), sys: sys}
	rt.token = sys.Alloc().Alloc(memory.LineWords)
	rt.status = driver.NewStatusRing(sys, nil)
	return rt
}

// Name implements tmapi.Runtime.
func (rt *Runtime) Name() string { return "Bulk" }

// Bind implements tmapi.Runtime.
func (rt *Runtime) Bind(ctx *sim.Ctx, core int) tmapi.Thread {
	th := &thread{rt: rt, wsig: signature.New(rt.sys.Config().Sig)}
	th.Thread = rt.Tally.Thread(ctx, core, 0xB01C, th, txn{th})
	return th
}

type thread struct {
	driver.Thread
	rt     *Runtime
	status memory.Addr
	// wsig holds the write signature a commit broadcasts, copied out
	// because the commit's flash clear empties the core's own.
	wsig *signature.Sig
}

func (th *thread) Load(a memory.Addr) uint64 {
	return th.rt.sys.Load(th.Ctx(), th.Core(), a).Val
}
func (th *thread) Store(a memory.Addr, v uint64) {
	th.rt.sys.Store(th.Ctx(), th.Core(), a, v)
}

// Begin implements driver.Protocol.
func (th *thread) Begin() {
	sys := th.rt.sys
	th.status = th.rt.status.Begin(&th.Thread)
	sys.ALoad(th.Ctx(), th.Core(), th.status)
	sys.BeginTxn(th.Core())
	th.Work(30)
	th.checkAlert()
}

// Rollback implements driver.Protocol.
func (th *thread) Rollback() {
	sys := th.rt.sys
	if sys.TxnActive(th.Core()) {
		sys.AbortFlash(th.Ctx(), th.Core())
	}
	th.Work(20)
}

// Backoff implements driver.Protocol.
func (th *thread) Backoff(n int) sim.Time { return driver.Backoff(th.Rand(), 64, n, 8) }

// checkAlert: a committer's broadcast aborted us.
func (th *thread) checkAlert() {
	sys := th.rt.sys
	if _, ok := sys.TakeAlert(th.Core()); !ok {
		return
	}
	if sys.ReadWordRaw(th.status) == driver.Aborted {
		driver.Abort()
	}
	sys.ALoad(th.Ctx(), th.Core(), th.status)
}

// Commit implements driver.Protocol: acquire the global token, broadcast
// the write signature, abort every transaction whose signatures intersect
// it, flash-commit, and release the token. Commits are fully serialized —
// the cost FlexTM's CSTs eliminate.
func (th *thread) Commit() bool {
	rt, sys := th.rt, th.rt.sys
	cores := sys.Config().Cores

	// Acquire the commit token.
	for {
		th.checkAlert() // we may be aborted while waiting for the token
		if th.Load(rt.token) == 0 {
			if _, ok := sys.CAS(th.Ctx(), th.Core(), rt.token, 0, uint64(th.Core())+1); ok {
				break
			}
		}
		th.Work(sim.Time(16 + th.Rand().Intn(64)))
	}
	// Last chance before becoming the committer; from here on the token is
	// held, so an abort must release it before unwinding.
	sys.TakeAlert(th.Core())
	if sys.ReadWordRaw(th.status) == driver.Aborted {
		th.Store(rt.token, 0)
		driver.Abort()
	}

	// Broadcast: one message round carrying Wsig; every other processor
	// compares against its own signatures and self-aborts on intersection
	// (false positives included, as in Bulk).
	wsig := th.wsig
	wsig.CopyFrom(sys.Wsig(th.Core()))
	broadcast := func() {
		th.Work(sim.Time(10 + 2*cores)) // message round + compares
		for r := 0; r < cores; r++ {
			if r == th.Core() || !sys.TxnActive(r) {
				continue
			}
			if sys.Rsig(r).Intersects(wsig) || sys.Wsig(r).Intersects(wsig) {
				sys.ForceWord(rt.status.Of(r), driver.Aborted)
			}
		}
	}
	broadcast()

	if sys.CASCommitNoCST(th.Ctx(), th.Core(), th.status, driver.Active, driver.Committed) == tmesi.CommitAborted {
		th.Store(rt.token, 0)
		driver.Abort()
	}
	// In hardware the broadcast and the commit are one bus-ordered action;
	// here they are separate simulated operations, so a reader can slip in
	// between them. Re-broadcasting after the flash closes the window (a
	// reader that now sees the committed values may be aborted spuriously,
	// which is safe).
	broadcast()
	th.Store(rt.token, 0)
	return true
}

// txn adapts the thread to tmapi.Txn over PDI.
type txn struct{ th *thread }

// Load implements tmapi.Txn.
func (t txn) Load(a memory.Addr) uint64 {
	th := t.th
	v := th.rt.sys.TLoad(th.Ctx(), th.Core(), a).Val
	th.checkAlert()
	return v
}

// Store implements tmapi.Txn.
func (t txn) Store(a memory.Addr, v uint64) {
	th := t.th
	th.rt.sys.TStore(th.Ctx(), th.Core(), a, v)
	th.checkAlert()
}

// Abort implements tmapi.Txn.
func (t txn) Abort() { panic(tmapi.AbortError{UserRequested: true}) }
