// Package logtm implements a LogTM-SE-flavored baseline (Moore et al.,
// HPCA 2006; Yen et al., HPCA 2007): the design point the paper contrasts
// FlexTM with in Sections 2 and 5. Its characteristics, mirrored here:
//
//   - Eager versioning: stores write the home location in place after
//     saving the old value to a per-thread undo log, so commits are fast
//     (drop the log) and aborts are slow (walk the log in reverse — unlike
//     FlexTM's order-free OT copy-back).
//   - Eager conflict detection with requestor stalls: a conflicting access
//     waits for the owner; transactions cannot abort remote peers (the
//     limitation that lets running transactions convoy behind others).
//   - Deadlock avoidance by age: a younger transaction that has stalled
//     too long behind an older one aborts itself.
//
// Ownership metadata lives in two-word headers in simulated memory
// (word 0: writer, word 1: reader bitmap), standing in for LogTM-SE's
// signature-over-coherence detection; the traffic it generates models the
// NACK/retry protocol.
package logtm

import (
	"flextm/internal/baselines/driver"
	"flextm/internal/memory"
	"flextm/internal/sim"
	"flextm/internal/tmapi"
	"flextm/internal/tmesi"
)

const (
	hWriter = 0 // word 0: writer core + 1, or 0
	hReader = 1 // word 1: reader bitmap
)

// logWords is the per-thread undo-log capacity (address/value pairs).
const logWords = 8192

// stallLimit bounds how many back-off rounds a younger transaction waits
// before the age rule makes it abort itself.
const stallLimit = 20

// Runtime is a LogTM-SE-style instance.
type Runtime struct {
	driver.Tally
	sys     *tmesi.System
	headers driver.Headers
	logs    []memory.Addr
	stamps  []uint64 // begin timestamps (age) per core
	clock   uint64
}

// New returns a LogTM runtime over sys.
func New(sys *tmesi.System) *Runtime {
	cores := sys.Config().Cores
	rt := &Runtime{
		Tally:   driver.NewTally(cores),
		sys:     sys,
		headers: driver.NewHeaders(sys),
		logs:    make([]memory.Addr, cores),
		stamps:  make([]uint64, cores),
	}
	for i := range rt.logs {
		rt.logs[i] = sys.Alloc().Alloc(logWords)
	}
	return rt
}

// Name implements tmapi.Runtime.
func (rt *Runtime) Name() string { return "LogTM" }

// Bind implements tmapi.Runtime.
func (rt *Runtime) Bind(ctx *sim.Ctx, core int) tmapi.Thread {
	th := &thread{rt: rt, writeHdr: make(map[memory.Addr]bool), readHdr: make(map[memory.Addr]bool)}
	th.Thread = rt.Tally.Thread(ctx, core, 0x106, th, txn{th})
	return th
}

type undoEntry struct {
	addr memory.Addr
	old  uint64
}

type thread struct {
	driver.Thread
	rt *Runtime

	stamp    uint64
	undo     []undoEntry // mirrored in simulated memory at rt.logs[core]
	writeHdr map[memory.Addr]bool
	writeOrd []memory.Addr // deterministic release order
	readHdr  map[memory.Addr]bool
	readOrd  []memory.Addr
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
	rt.clock++
	th.stamp = rt.clock
	rt.stamps[th.Core()] = th.stamp
	th.undo = th.undo[:0]
	clear(th.writeHdr)
	th.writeOrd = th.writeOrd[:0]
	clear(th.readHdr)
	th.readOrd = th.readOrd[:0]
	th.Work(20) // register checkpoint + log pointer setup
}

// Backoff implements driver.Protocol.
func (th *thread) Backoff(n int) sim.Time { return driver.Backoff(th.Rand(), 64, n, 8) }

// stall models a NACKed request: back off and retry; the age rule aborts a
// younger transaction that has waited too long (deadlock avoidance).
func (th *thread) stall(attempt int, ownerStamp uint64) {
	if attempt >= stallLimit && th.stamp > ownerStamp {
		driver.Abort() // younger yields to older: no deadlock
	}
	th.Work(sim.Time(16 + th.Rand().Intn(16<<uint(min(attempt, 6)))))
}

// openRead registers this core as a reader of the line, stalling while a
// remote writer owns it.
func (th *thread) openRead(line memory.LineAddr) {
	rt, sys := th.rt, th.rt.sys
	hdr := rt.headers.Of(line)
	if th.readHdr[hdr] || th.writeHdr[hdr] {
		return
	}
	myBit := uint64(1) << uint(th.Core())
	for attempt := 0; ; attempt++ {
		w := th.Load(hdr + hWriter)
		if w != 0 && int(w-1) != th.Core() {
			th.stall(attempt, rt.stamps[w-1])
			continue
		}
		// Publish our reader bit (atomic RMW on the header's reader word).
		for {
			cur := th.Load(hdr + hReader)
			if _, ok := sys.CAS(th.Ctx(), th.Core(), hdr+hReader, cur, cur|myBit); ok {
				break
			}
		}
		// Re-check the writer: one may have acquired (and begun writing in
		// place) between our check and the bit publication. If so, retreat
		// and stall — reading now could observe uncommitted data.
		w = th.Load(hdr + hWriter)
		if w != 0 && int(w-1) != th.Core() {
			for {
				cur := th.Load(hdr + hReader)
				if _, ok := sys.CAS(th.Ctx(), th.Core(), hdr+hReader, cur, cur&^myBit); ok {
					break
				}
			}
			th.stall(attempt, rt.stamps[w-1])
			continue
		}
		break
	}
	th.readHdr[hdr] = true
	th.readOrd = append(th.readOrd, hdr)
}

// openWrite acquires write ownership of the line, stalling while remote
// readers or a writer hold it.
func (th *thread) openWrite(line memory.LineAddr) {
	rt, sys := th.rt, th.rt.sys
	hdr := rt.headers.Of(line)
	if th.writeHdr[hdr] {
		return
	}
	for attempt := 0; ; attempt++ {
		w := th.Load(hdr + hWriter)
		if w != 0 && int(w-1) != th.Core() {
			th.stall(attempt, rt.stamps[w-1])
			continue
		}
		if w == 0 { // else already ours
			if _, ok := sys.CAS(th.Ctx(), th.Core(), hdr+hWriter, 0, uint64(th.Core())+1); !ok {
				continue
			}
		}
		th.writeHdr[hdr] = true
		th.writeOrd = append(th.writeOrd, hdr)
		break
	}
	// Wait out foreign readers (LogTM NACKs the writer until they drain).
	myBit := uint64(1) << uint(th.Core())
	for attempt := 0; ; attempt++ {
		r := th.Load(hdr + hReader)
		if r&^myBit == 0 {
			return
		}
		// Age rule against the oldest reader we are stuck behind.
		oldest := uint64(1 << 63)
		for c := 0; c < len(rt.stamps); c++ {
			if r&(1<<uint(c)) != 0 && c != th.Core() && rt.stamps[c] < oldest {
				oldest = rt.stamps[c]
			}
		}
		th.stall(attempt, oldest)
	}
}

// Commit implements driver.Protocol. It is fast: release ownership,
// truncate the log.
func (th *thread) Commit() bool {
	th.release()
	th.Work(10) // log pointer reset
	return true
}

// Rollback implements driver.Protocol: walk the undo log in reverse,
// restoring old values in place, then release ownership — LogTM's
// expensive abort path.
func (th *thread) Rollback() {
	for i := len(th.undo) - 1; i >= 0; i-- {
		th.Store(th.undo[i].addr, th.undo[i].old)
		th.Work(4) // log walk instructions
	}
	th.release()
}

// release drops write ownership and the reader bit on every touched header
// (slices, not maps, so the simulated access order is deterministic).
func (th *thread) release() {
	sys := th.rt.sys
	for _, hdr := range th.writeOrd {
		th.Store(hdr+hWriter, 0)
	}
	myBit := uint64(1) << uint(th.Core())
	for _, hdr := range th.readOrd {
		for {
			cur := th.Load(hdr + hReader)
			if cur&myBit == 0 {
				break
			}
			if _, ok := sys.CAS(th.Ctx(), th.Core(), hdr+hReader, cur, cur&^myBit); ok {
				break
			}
		}
	}
}

// txn adapts the thread to tmapi.Txn with eager in-place semantics.
type txn struct{ th *thread }

// Load implements tmapi.Txn.
func (t txn) Load(a memory.Addr) uint64 {
	th := t.th
	th.openRead(a.Line())
	return th.Load(a)
}

// Store implements tmapi.Txn: log the old value, then write in place.
func (t txn) Store(a memory.Addr, v uint64) {
	th := t.th
	th.openWrite(a.Line())
	old := th.Load(a)
	if len(th.undo) < logWords/2 {
		slot := th.rt.logs[th.Core()] + memory.Addr(2*len(th.undo))
		th.Store(slot, uint64(a))
		th.Store(slot+1, old)
	}
	th.undo = append(th.undo, undoEntry{addr: a, old: old})
	th.Store(a, v)
}

// Abort implements tmapi.Txn.
func (t txn) Abort() { panic(tmapi.AbortError{UserRequested: true}) }
