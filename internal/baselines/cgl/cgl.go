// Package cgl implements the coarse-grain-lock baseline of the paper's
// evaluation: every Atomic section acquires one global test-and-test-and-set
// lock in simulated memory. Single-thread CGL throughput is the
// normalization basis for every plot in Figure 4 and Figure 5.
package cgl

import (
	"flextm/internal/baselines/driver"
	"flextm/internal/memory"
	"flextm/internal/sim"
	"flextm/internal/tmapi"
	"flextm/internal/tmesi"
)

// Runtime is a coarse-grain lock "TM".
type Runtime struct {
	driver.Tally
	sys  *tmesi.System
	lock *Spinlock
}

// New returns a CGL runtime over sys.
func New(sys *tmesi.System) *Runtime {
	return &Runtime{Tally: driver.NewTally(sys.Config().Cores), sys: sys, lock: NewSpinlock(sys)}
}

// Name implements tmapi.Runtime.
func (rt *Runtime) Name() string { return "CGL" }

// Bind implements tmapi.Runtime.
func (rt *Runtime) Bind(ctx *sim.Ctx, core int) tmapi.Thread {
	th := &thread{rt: rt}
	th.Thread = rt.Tally.Thread(ctx, core, 0xC61, th, txn{th})
	return th
}

// thread's protocol brackets each Atomic section with the global lock;
// sections are not speculative, so they always commit.
type thread struct {
	driver.Thread
	rt *Runtime
}

func (th *thread) Load(a memory.Addr) uint64 {
	return th.rt.sys.Load(th.Ctx(), th.Core(), a).Val
}
func (th *thread) Store(a memory.Addr, v uint64) {
	th.rt.sys.Store(th.Ctx(), th.Core(), a, v)
}

// Begin implements driver.Protocol.
func (th *thread) Begin() { th.rt.lock.Acquire(th.Ctx(), th.Core(), th.Rand()) }

// Commit implements driver.Protocol.
func (th *thread) Commit() bool {
	th.rt.lock.Release(th.Ctx(), th.Core())
	return true
}

// Rollback implements driver.Protocol; nothing in a CGL section raises an
// abort, but one would leave the lock free for the retry.
func (th *thread) Rollback() { th.rt.lock.Release(th.Ctx(), th.Core()) }

// Backoff implements driver.Protocol.
func (th *thread) Backoff(int) sim.Time { return 0 }

// txn adapts lock-protected plain access to tmapi.Txn.
type txn struct{ th *thread }

// Load implements tmapi.Txn.
func (t txn) Load(a memory.Addr) uint64 { return t.th.Load(a) }

// Store implements tmapi.Txn.
func (t txn) Store(a memory.Addr, v uint64) { t.th.Store(a, v) }

// Abort is meaningless under a lock; CGL sections are not speculative.
// Workloads only call Abort for explicit retry, which none of the paper's
// benchmarks do, so this panics to surface misuse.
func (t txn) Abort() { panic("cgl: Abort inside a lock-based atomic section") }
