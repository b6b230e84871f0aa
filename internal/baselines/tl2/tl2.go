// Package tl2 implements a word-based software TM in the style of
// Transactional Locking II (Dice, Shalev & Shavit, DISC 2006), the STM the
// paper compares against for Workload-Set 2 (Vacation). It runs on "legacy
// hardware": all of its bookkeeping — the global version clock, the
// per-stripe versioned write locks, and the redo log — lives in simulated
// memory and is accessed with ordinary coherent loads, stores, and CASes,
// so its per-access costs emerge from the same latency model as FlexTM's
// hardware paths.
package tl2

import (
	"flextm/internal/baselines/driver"
	"flextm/internal/memory"
	"flextm/internal/sim"
	"flextm/internal/tmapi"
	"flextm/internal/tmesi"
)

// Stripes is the size of the versioned-lock table. Addresses hash to
// stripes at cache-line granularity; collisions cause false conflicts,
// as in the real system.
const Stripes = 1 << 13

// logWords is the per-thread redo-log region size (ring).
const logWords = 4096

// Lock-word encoding: version<<1, low bit set while write-locked.
const lockedBit = 1

// spinLimit bounds how long a committer waits on a locked stripe before
// aborting.
const spinLimit = 8

// Runtime is a TL2 instance.
type Runtime struct {
	driver.Tally
	sys   *tmesi.System
	clock memory.Addr // global version clock
	locks memory.Addr // stripe lock words, one per word to avoid pathological false sharing beyond hashing
	logs  []memory.Addr
}

// New returns a TL2 runtime over sys.
func New(sys *tmesi.System) *Runtime {
	cores := sys.Config().Cores
	rt := &Runtime{
		Tally: driver.NewTally(cores),
		sys:   sys,
		clock: sys.Alloc().Alloc(memory.LineWords),
		locks: sys.Alloc().Alloc(Stripes),
		logs:  make([]memory.Addr, cores),
	}
	for i := range rt.logs {
		rt.logs[i] = sys.Alloc().Alloc(logWords)
	}
	return rt
}

// Name implements tmapi.Runtime.
func (rt *Runtime) Name() string { return "TL2" }

// Bind implements tmapi.Runtime.
func (rt *Runtime) Bind(ctx *sim.Ctx, core int) tmapi.Thread {
	th := &thread{rt: rt, writeMap: make(map[memory.Addr]uint64), locked: make(map[memory.Addr]bool)}
	th.Thread = rt.Tally.Thread(ctx, core, 0x71E2, th, txn{th})
	return th
}

// stripeOf maps an address to its lock word (line granularity hash).
func (rt *Runtime) stripeOf(a memory.Addr) memory.Addr {
	h := uint64(a.Line()) * 0x9E3779B97F4A7C15
	return rt.locks + memory.Addr(h%Stripes)
}

type thread struct {
	driver.Thread
	rt *Runtime

	rv       uint64
	readSet  []memory.Addr // stripe addresses with observed versions
	readVer  []uint64
	writeMap map[memory.Addr]uint64 // address -> buffered value (redo)
	writeOrd []memory.Addr          // insertion order for deterministic commit
	logPos   int

	// The commit's lock set, reused across commits: the stripes it holds,
	// their versions before locking, and the same stripes as a set.
	held    []memory.Addr
	heldVer []uint64
	locked  map[memory.Addr]bool
}

func (th *thread) Load(a memory.Addr) uint64 {
	return th.rt.sys.Load(th.Ctx(), th.Core(), a).Val
}
func (th *thread) Store(a memory.Addr, v uint64) {
	th.rt.sys.Store(th.Ctx(), th.Core(), a, v)
}

// Begin implements driver.Protocol.
func (th *thread) Begin() {
	th.rv = th.Load(th.rt.clock)
	th.readSet = th.readSet[:0]
	th.readVer = th.readVer[:0]
	clear(th.writeMap)
	th.writeOrd = th.writeOrd[:0]
}

// Rollback implements driver.Protocol: TL2 writes nothing shared before
// its commit, which releases its own locks when it fails.
func (th *thread) Rollback() {}

// Backoff implements driver.Protocol.
func (th *thread) Backoff(n int) sim.Time { return driver.Backoff(th.Rand(), 32, n, 10) }

// txn adapts the thread to tmapi.Txn with TL2 semantics.
type txn struct{ th *thread }

// Load implements tmapi.Txn: the TL2 read protocol — pre-read lock, read
// data, post-read lock check against RV.
func (t txn) Load(a memory.Addr) uint64 {
	th := t.th
	if v, ok := th.writeMap[a]; ok {
		// Bloom-filter + write-set lookup cost in real TL2; one cycle here.
		th.Work(1)
		return v
	}
	// Read barrier instructions (bloom filter check, logging, bookkeeping).
	th.Work(20)
	stripe := th.rt.stripeOf(a)
	l1 := th.Load(stripe)
	v := th.Load(a)
	l2 := th.Load(stripe)
	if l1 != l2 || l1&lockedBit != 0 || l1>>1 > th.rv {
		driver.Abort()
	}
	th.readSet = append(th.readSet, stripe)
	th.readVer = append(th.readVer, l1)
	return v
}

// Store implements tmapi.Txn: buffer the value in the redo log.
func (t txn) Store(a memory.Addr, v uint64) {
	th := t.th
	if _, seen := th.writeMap[a]; !seen {
		th.writeOrd = append(th.writeOrd, a)
	}
	th.writeMap[a] = v
	th.Work(25) // write barrier instructions
	// Redo-log append traffic: one store into the thread's log ring.
	log := th.rt.logs[th.Core()] + memory.Addr(th.logPos%logWords)
	th.logPos++
	th.Store(log, v)
}

// Abort implements tmapi.Txn.
func (t txn) Abort() { panic(tmapi.AbortError{UserRequested: true}) }

// Commit implements driver.Protocol with TL2's commit: lock the write set,
// bump the global clock, validate the read set, write back, release.
func (th *thread) Commit() bool {
	sys := th.rt.sys
	if len(th.writeOrd) == 0 {
		return true // read-only fast path
	}

	// Phase 1: acquire stripe locks (deduplicated, deterministic order).
	th.held, th.heldVer = th.held[:0], th.heldVer[:0]
	clear(th.locked)
	fail := func() bool {
		for i, s := range th.held {
			th.Store(s, th.heldVer[i])
		}
		return false
	}
	for _, a := range th.writeOrd {
		s := th.rt.stripeOf(a)
		if th.locked[s] {
			continue
		}
		got := false
		for spin := 0; spin < spinLimit; spin++ {
			cur := th.Load(s)
			if cur&lockedBit != 0 {
				th.Work(sim.Time(32 + th.Rand().Intn(64)))
				continue
			}
			if cur>>1 > th.rv {
				return fail()
			}
			if _, ok := sys.CAS(th.Ctx(), th.Core(), s, cur, cur|lockedBit); ok {
				th.held = append(th.held, s)
				th.heldVer = append(th.heldVer, cur)
				th.locked[s] = true
				got = true
				break
			}
		}
		if !got {
			return fail()
		}
	}

	// Phase 2: increment the global clock.
	wv := sys.FetchAdd(th.Ctx(), th.Core(), th.rt.clock, 1) + 1

	// Phase 3: validate the read set (skip if rv+1 == wv: nothing changed).
	if wv != th.rv+1 {
		for i, s := range th.readSet {
			if th.locked[s] {
				continue // we hold it
			}
			cur := th.Load(s)
			if cur != th.readVer[i] {
				return fail()
			}
		}
	}

	// Phase 4: write back and release with the new version.
	for _, a := range th.writeOrd {
		th.Work(8) // commit loop bookkeeping
		th.Store(a, th.writeMap[a])
	}
	for _, s := range th.held {
		th.Store(s, wv<<1)
	}
	return true
}
