// Package rstm implements an object-based software TM in the style of RSTM
// (Marathe et al.), configured as in the paper's evaluation: invisible
// readers with self validation for conflict detection, clone-on-write
// versioning, and a contention manager for writer-writer arbitration.
//
// Objects are cache-line granules guarded by header words in simulated
// memory. Every open pays the metadata costs the paper charges RSTM for:
// a header load (indirection), a status-word check, acquisition CASes for
// writers, a full clone on first write, and — because readers are
// invisible — re-validation of the entire read list on every open. All of
// this traffic goes through the simulated memory system.
package rstm

import (
	"flextm/internal/baselines/driver"
	"flextm/internal/memory"
	"flextm/internal/sim"
	"flextm/internal/tmapi"
	"flextm/internal/tmesi"
)

// header encoding: version<<8 | (owner+1); low byte 0 means unowned.
const ownerMask = 0xFF

// Runtime is an RSTM instance.
type Runtime struct {
	driver.Tally
	sys     *tmesi.System
	headers driver.Headers
	status  *driver.StatusRing
	arb     *driver.Arbiter
	clones  []memory.Addr // per-core clone arena (ring of lines)
	cloneIx []int
}

const cloneLines = 512

// New returns an RSTM runtime over sys with the Polka contention manager.
func New(sys *tmesi.System) *Runtime {
	cores := sys.Config().Cores
	rt := &Runtime{
		Tally:   driver.NewTally(cores),
		sys:     sys,
		headers: driver.NewHeaders(sys),
		clones:  make([]memory.Addr, cores),
		cloneIx: make([]int, cores),
	}
	rt.status = driver.NewStatusRing(sys, func(c int) {
		rt.clones[c] = sys.Alloc().Alloc(cloneLines * memory.LineWords)
	})
	rt.arb = driver.NewArbiter(rt.status)
	return rt
}

// Name implements tmapi.Runtime.
func (rt *Runtime) Name() string { return "RSTM" }

// Bind implements tmapi.Runtime.
func (rt *Runtime) Bind(ctx *sim.Ctx, core int) tmapi.Thread {
	th := &thread{rt: rt, opened: make(map[memory.LineAddr]bool), written: make(map[memory.LineAddr]int)}
	th.Thread = rt.Tally.Thread(ctx, core, 0x57A, th, txn{th})
	return th
}

type readEntry struct {
	hdr memory.Addr
	ver uint64
}

type writeEntry struct {
	line  memory.LineAddr
	hdr   memory.Addr
	ver   uint64 // pre-acquire version
	clone memory.Addr
}

type thread struct {
	driver.Thread
	rt *Runtime

	status  memory.Addr
	reads   []readEntry
	opened  map[memory.LineAddr]bool // lines already opened read-only
	writes  []writeEntry
	written map[memory.LineAddr]int // line -> index in writes
}

func (th *thread) Load(a memory.Addr) uint64 {
	return th.rt.sys.Load(th.Ctx(), th.Core(), a).Val
}
func (th *thread) Store(a memory.Addr, v uint64) {
	th.rt.sys.Store(th.Ctx(), th.Core(), a, v)
}

// Begin implements driver.Protocol.
func (th *thread) Begin() {
	rt := th.rt
	th.status = rt.status.Begin(&th.Thread)
	rt.arb.Karma[th.Core()] = 0
	th.reads = th.reads[:0]
	clear(th.opened)
	th.writes = th.writes[:0]
	clear(th.written)
	rt.cloneIx[th.Core()] = 0
}

// Rollback implements driver.Protocol.
func (th *thread) Rollback() { th.releaseAll(false) }

// Backoff implements driver.Protocol.
func (th *thread) Backoff(n int) sim.Time { return th.rt.arb.RetryBackoff(&th.Thread, n) }

// checkSelf polls the transaction's own status word: invisible readers must
// notice remote aborts themselves.
func (th *thread) checkSelf() {
	if th.Load(th.status) == driver.Aborted {
		driver.Abort()
	}
}

// validate re-reads every header in the read list (RSTM's self-validation,
// performed on each open). This is the quadratic cost the paper measures at
// up to 80% of RandomGraph's execution time.
func (th *thread) validate() {
	for _, re := range th.reads {
		h := th.Load(re.hdr)
		th.Work(2) // loop + compare instructions
		if h != re.ver {
			// Acquiring the object ourselves is fine only if its version
			// has not advanced since we read it; otherwise the read is
			// stale even though we now own the header.
			if owner := h & ownerMask; owner != 0 && int(owner-1) == th.Core() &&
				h&^uint64(ownerMask) == re.ver&^uint64(ownerMask) {
				continue
			}
			driver.Abort()
		}
	}
}

// barrier instruction costs: a 2006-era C++ STM spends on the order of a
// hundred instructions per object open (function calls, descriptor
// bookkeeping, memory management), beyond the metadata memory traffic that
// is charged as simulated accesses.
const (
	openROWork  = 60
	openRWWork  = 120
	readIndWork = 5
)

// openRO performs the read-side protocol for line.
func (th *thread) openRO(line memory.LineAddr) {
	hdr := th.rt.headers.Of(line)
	th.Work(openROWork)
	th.checkSelf()
	for attempt := 0; ; attempt++ {
		h := th.Load(hdr)
		owner := h & ownerMask
		if owner == 0 || int(owner-1) == th.Core() {
			th.reads = append(th.reads, readEntry{hdr: hdr, ver: h})
			break
		}
		th.contend(int(owner-1), attempt)
	}
	th.rt.arb.Karma[th.Core()]++
	th.validate()
}

// openRW acquires the header for line and clones the object on first
// write, returning the clone address writes should target.
func (th *thread) openRW(line memory.LineAddr) memory.Addr {
	rt, sys := th.rt, th.rt.sys
	if i, ok := th.written[line]; ok {
		return th.writes[i].clone
	}
	hdr := rt.headers.Of(line)
	th.Work(openRWWork)
	th.checkSelf()
	var pre uint64
	for attempt := 0; ; attempt++ {
		h := th.Load(hdr)
		owner := h & ownerMask
		if owner == 0 {
			if _, ok := sys.CAS(th.Ctx(), th.Core(), hdr, h, h|uint64(th.Core()+1)); ok {
				pre = h
				break
			}
			continue
		}
		if int(owner-1) == th.Core() {
			// A line this transaction already wrote shares the header
			// (their headers.Of collide): it is ours already, and both
			// write entries release it to the same version.
			pre = h &^ ownerMask
			break
		}
		th.contend(int(owner-1), attempt)
	}
	// Clone: copy the canonical line into the thread's clone arena.
	ci := rt.cloneIx[th.Core()]
	if ci >= cloneLines {
		panic("rstm: transaction write set exceeds clone arena")
	}
	rt.cloneIx[th.Core()]++
	clone := rt.clones[th.Core()] + memory.Addr(ci*memory.LineWords)
	for w := 0; w < memory.LineWords; w++ {
		th.Store(clone+memory.Addr(w), th.Load(line.WordOf(w)))
	}
	th.writes = append(th.writes, writeEntry{line: line, hdr: hdr, ver: pre, clone: clone})
	th.written[line] = len(th.writes) - 1
	rt.arb.Karma[th.Core()]++
	th.validate()
	return clone
}

// contend consults the contention manager about a conflicting owner; the
// loop that called it re-reads the header, which an aborted enemy releases.
func (th *thread) contend(enemy int, attempt int) {
	th.rt.arb.Arbitrate(&th.Thread, enemy, attempt, 64)
	if attempt > driver.Patience {
		driver.Abort()
	}
}

// Commit implements driver.Protocol: validate once more, swing the status
// word, copy clones back, and release headers with bumped versions.
func (th *thread) Commit() bool {
	th.validate()
	if _, ok := th.rt.sys.CAS(th.Ctx(), th.Core(), th.status, driver.Active, driver.Committed); !ok {
		th.releaseAll(false)
		return false
	}
	th.releaseAll(true)
	return true
}

// releaseAll publishes (commit=true) or discards (commit=false) clones and
// releases every acquired header.
func (th *thread) releaseAll(commit bool) {
	for _, we := range th.writes {
		if commit {
			for w := 0; w < memory.LineWords; w++ {
				th.Store(we.line.WordOf(w), th.Load(we.clone+memory.Addr(w)))
			}
			th.Store(we.hdr, we.ver+(1<<8)) // new version, unowned
		} else {
			th.Store(we.hdr, we.ver)
		}
	}
}

// txn adapts the thread to tmapi.Txn.
type txn struct{ th *thread }

// Load implements tmapi.Txn.
func (t txn) Load(a memory.Addr) uint64 {
	th := t.th
	line := a.Line()
	if i, ok := th.written[line]; ok {
		return th.Load(th.writes[i].clone + memory.Addr(a.Offset()))
	}
	if !th.opened[line] {
		th.openRO(line)
		th.opened[line] = true
	}
	th.Work(readIndWork) // pointer indirection through the header
	return th.Load(a)
}

// Store implements tmapi.Txn.
func (t txn) Store(a memory.Addr, v uint64) {
	t.th.Store(t.th.openRW(a.Line())+memory.Addr(a.Offset()), v)
}

// Abort implements tmapi.Txn.
func (t txn) Abort() { panic(tmapi.AbortError{UserRequested: true}) }
