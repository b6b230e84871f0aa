package core

import (
	"math/bits"

	"flextm/internal/baselines/cgl"
	"flextm/internal/cm"
	"flextm/internal/cst"
	"flextm/internal/flight"
	"flextm/internal/memory"
	"flextm/internal/sim"
	"flextm/internal/telemetry"
	"flextm/internal/tmapi"
	"flextm/internal/tmesi"
)

// Thread is one application thread under the FlexTM runtime.
type Thread struct {
	rt    *Runtime
	ctx   *sim.Ctx
	core  int
	rnd   *sim.Rand
	depth int
	d     *desc

	// descs are the thread's two descriptor slots; attempt n runs in
	// descs[n&1], where attempts counts the attempts begun. Until begin
	// re-advertises, the runtime's per-core entry still names the previous
	// attempt's descriptor, and readers of that entry (the strong-isolation
	// hook, karmaOf, stampOf) must find it as that attempt left it, so an
	// attempt never reuses the slot of the one before.
	descs    [2]desc
	attempts uint64

	consecAborts int
	// inFallback marks that this thread holds the runtime's fallback lock
	// and is finishing its section in serialized-irrevocable mode.
	inFallback bool
	// admitHeld marks that this thread holds an admission token (governor
	// admission control); released when its Atomic section ends.
	admitHeld bool

	// Cycle-attribution bookkeeping for the current attempt (telemetry):
	// when the attempt started and how many of its cycles were spent
	// stalled in contention-manager back-off.
	attemptStart sim.Time
	stallCycles  sim.Time
}

// Core implements tmapi.Thread.
func (th *Thread) Core() int { return th.core }

// Ctx implements tmapi.Thread.
func (th *Thread) Ctx() *sim.Ctx { return th.ctx }

// Rand implements tmapi.Thread.
func (th *Thread) Rand() *sim.Rand { return th.rnd }

// Work implements tmapi.Thread.
func (th *Thread) Work(d sim.Time) { th.ctx.Advance(d) }

// Load implements tmapi.Thread: an ordinary, non-transactional load.
func (th *Thread) Load(a memory.Addr) uint64 {
	v := th.rt.sys.Load(th.ctx, th.core, a).Val
	th.rt.orc.NTRead(th.core, th.ctx.Now(), a, v)
	th.checkAlert()
	return v
}

// Store implements tmapi.Thread: an ordinary, non-transactional store.
func (th *Thread) Store(a memory.Addr, v uint64) {
	th.rt.sys.Store(th.ctx, th.core, a, v)
	th.rt.orc.NTWrite(th.core, th.ctx.Now(), a, v)
	th.checkAlert()
}

// Atomic implements tmapi.Thread. It retries body until a commit succeeds,
// backing off between attempts per the contention manager. Nested calls
// are subsumed into the outermost transaction.
func (th *Thread) Atomic(body func(tmapi.Txn)) {
	if th.depth > 0 {
		th.depth++
		defer func() { th.depth-- }()
		body(txnView{th})
		return
	}
	stamp := uint64(0)
	sectionStart := th.ctx.Now()
	// Admission gate (governor): with a token cap in force, wait for a free
	// token before entering the section, and hold it across retries so the
	// cap bounds *sections* in flight, not attempts. One branch when off.
	th.admitGate()
	defer th.admitRelease()
	for {
		if stamp == 0 {
			th.rt.ageClock++
			stamp = th.rt.ageClock
		}
		// Fallback gate: if some thread escalated, drain behind it before
		// (re)trying optimistically, so the irrevocable section runs alone.
		// The un-contended check is one load of a shared line and consumes
		// no randomness, leaving fault-free schedules untouched.
		th.fallbackGate()
		// Forced serialization (the ladder's last rung): skip the optimistic
		// path entirely and finish under the fallback lock.
		if th.rt.forceSerial {
			th.escalate(stamp, body)
			th.consecAborts = 0
			return
		}
		if th.attempt(stamp, body) {
			th.consecAborts = 0
			return
		}
		th.rt.stats[th.core].Aborts++
		th.consecAborts++
		if th.watchdogTripped(sectionStart) {
			th.escalate(stamp, body)
			th.consecAborts = 0
			return
		}
		if y := th.rt.OnAbortYield; y != nil {
			y(th)
		}
		backoff := th.rt.mgr.RetryBackoff(th.consecAborts, th.rnd)
		if b := th.rt.backoffBoost; b != 0 && backoff != 0 {
			boosted := backoff << b
			if boosted>>b != backoff {
				boosted = 1 << 62 // cannot occur with capped windows; belt and braces
			}
			backoff = boosted
		}
		th.ctx.Advance(backoff)
		// Retry back-off is stall-wait: the thread sits between attempts.
		th.rt.tel.Add(th.core, telemetry.CtrCycStall, backoff)
		flight.Emit(th.rt.tel, th.rt.fl, th.core, th.ctx.Now(), flight.Backoff, -1, clamp8(th.consecAborts), 0, backoff)
	}
}

// admitGate blocks until the governor's admission cap has a free token,
// then takes one. Free (a single predicted branch) when no cap is in force.
// The poll consumes no randomness and advances in fixed ticks, so gated
// schedules are deterministic.
func (th *Thread) admitGate() {
	rt := th.rt
	if rt.admitLimit == 0 || th.inFallback {
		return
	}
	for rt.admitLimit != 0 && rt.admitActive >= rt.admitLimit {
		th.ctx.Advance(admitPollTick)
		th.ctx.Sync() // Advance alone never yields; let token holders run
		rt.tel.Add(th.core, telemetry.CtrGovAdmitWaitCycles, admitPollTick)
		rt.tel.Add(th.core, telemetry.CtrCycStall, admitPollTick)
	}
	rt.admitActive++
	th.admitHeld = true
}

// admitRelease returns this thread's admission token, if it holds one. The
// token is also released when the cap is lifted mid-section, keeping
// admitActive consistent with a limit that came and went.
func (th *Thread) admitRelease() {
	if th.admitHeld {
		th.rt.admitActive--
		th.admitHeld = false
	}
}

// fallbackGate waits until no escalated thread holds the fallback lock.
// With no escalation active the gate is free (no simulated traffic): the
// lock line sits shared in every cache and the check folds into Begin.
func (th *Thread) fallbackGate() {
	if th.inFallback || th.rt.escActive == 0 {
		return
	}
	th.rt.fallback.SpinWhileHeld(th.ctx, th.core, th.rnd)
}

// watchdogTripped evaluates the liveness budgets after a failed attempt.
func (th *Thread) watchdogTripped(sectionStart sim.Time) bool {
	live := th.rt.live
	tripped := (live.MaxConsecAborts > 0 && th.consecAborts >= live.MaxConsecAborts) ||
		(live.MaxStallCycles > 0 && th.ctx.Now()-sectionStart >= live.MaxStallCycles)
	if tripped {
		flight.Emit(th.rt.tel, th.rt.fl, th.core, th.ctx.Now(), flight.WatchdogTrip, -1, clamp8(th.consecAborts), 0, 0)
		th.rt.dumpFlight(th.core)
	}
	return tripped
}

// escalate finishes the section in serialized-irrevocable mode: take the
// global fallback lock (new optimistic attempts drain at fallbackGate), shut
// off fault injection for this core, and re-run the body transactionally
// until it commits. Running transactionally (rather than with raw stores)
// preserves isolation against optimistic attempts still in flight when the
// lock was acquired, and preserves Txn.Abort retry semantics; those stragglers
// either finish or abort, so the escalated attempt loop terminates.
func (th *Thread) escalate(stamp uint64, body func(tmapi.Txn)) {
	rt := th.rt
	rt.stats[th.core].Escalations++
	flight.Emit(rt.tel, rt.fl, th.core, th.ctx.Now(), flight.Escalate, -1, 0, 0, 0)
	if rt.fallback == nil {
		rt.fallback = cgl.NewSpinlock(rt.sys)
	}
	rt.fallback.Acquire(th.ctx, th.core, th.rnd)
	rt.escActive++
	rt.sys.SetFaultImmunity(th.core, true)
	th.inFallback = true
	defer func() {
		th.inFallback = false
		rt.sys.SetFaultImmunity(th.core, false)
		rt.escActive--
		rt.fallback.Release(th.ctx, th.core)
	}()
	for {
		if th.attempt(stamp, body) {
			rt.tel.Inc(th.core, telemetry.CtrEscalatedCommit)
			return
		}
		rt.stats[th.core].Aborts++
		// Brief fixed pause: the only way to get here is a straggler enemy
		// or a user-requested retry, both of which need a little time.
		th.ctx.Advance(rt.costs.AbortWork + 64)
	}
}

// attempt begins a transaction and runs body once, converting abort panics
// into a false return. begin itself runs inside the recovered region: an
// enemy (or the OS, across a context switch) can abort us before the first
// body operation.
func (th *Thread) attempt(stamp uint64, body func(tmapi.Txn)) (committed bool) {
	th.depth = 1
	defer func() {
		th.depth = 0
		if r := recover(); r != nil {
			if _, ok := r.(tmapi.AbortError); !ok {
				panic(r)
			}
			th.onAbort()
		}
	}()
	th.begin(stamp)
	body(txnView{th})
	th.commit()
	return true
}

// begin implements BEGIN_TRANSACTION: fresh descriptor, TSW set to active
// and advertised, TSW ALoaded for abort notification, hardware transaction
// mode on, registers checkpointed.
func (th *Thread) begin(stamp uint64) {
	rt, sys := th.rt, th.rt.sys
	th.attemptStart = th.ctx.Now()
	th.stallCycles = 0
	th.attempts++
	d := &th.descs[th.attempts&1]
	*d = desc{tsw: rt.nextTSW(th.core), stamp: stamp, gen: th.attempts, live: true}
	th.d = d
	sys.Store(th.ctx, th.core, d.tsw, TSWActive)
	sys.ALoad(th.ctx, th.core, d.tsw)
	rt.current[th.core] = d
	sys.BeginTxn(th.core)
	// Advertise the descriptor last: each step above can be interrupted by
	// a context switch, and once this registration is visible the OS's
	// suspend/resume (DetachTxn/AttachTxn) keeps it coherent. Publishing it
	// earlier risks another thread's transactions on this core overwriting
	// the entry while we are parked mid-begin, leaving enemies to CAS a
	// stale status word that can never read "active".
	sys.Store(th.ctx, th.core, rt.tswEntry(th.core), uint64(d.tsw))
	th.ctx.Advance(rt.costs.Begin)
	rt.fl.Rec(th.core, th.ctx.Now(), flight.TxnBegin, -1, 0, 0)
	// Record the begin before the alert poll below: if the poll aborts us,
	// the oracle must still see a begin/abort pair, not an orphan abort.
	rt.orc.Begin(th.core, th.ctx.Now())
	// A strong-isolation abort can race with begin; surface it now.
	th.checkAlert()
}

// onAbort is the abort handler: it flash-discards speculative state (if the
// CAS-Commit failure path has not already) and clears the descriptor.
func (th *Thread) onAbort() {
	sys := th.rt.sys
	// The one lifecycle event written to its two sinks apart rather than
	// through flight.Emit: the abort is recorded here, and CtrTxnAborts is
	// added below, after AbortFlash's ctx.Sync. Either merge changes
	// simulated output. Adding the counter here lets a pump that runs
	// during the sync count the abort a frame early; recording below lets
	// records other cores write during the sync take earlier Seqs.
	th.rt.fl.Rec(th.core, th.ctx.Now(), flight.TxnAbort, -1, 0, 0)
	th.rt.orc.Abort(th.core, th.ctx.Now())
	th.d.live = false
	if sys.TxnActive(th.core) {
		sys.AbortFlash(th.ctx, th.core)
	}
	th.ctx.Advance(th.rt.costs.AbortWork)
	if tel := th.rt.tel; tel != nil {
		// The whole attempt (including the abort handler) is discarded
		// work, except the cycles already classified as stall-wait.
		total := th.ctx.Now() - th.attemptStart
		tel.Inc(th.core, telemetry.CtrTxnAborts)
		tel.Add(th.core, telemetry.CtrCycAborted, clampSub(total, th.stallCycles))
		tel.Add(th.core, telemetry.CtrCycStall, th.stallCycles)
		tel.Observe(th.core, telemetry.HistAbortCycles, total)
	}
}

// clampSub returns a-b, clamped at zero.
func clampSub(a, b sim.Time) sim.Time {
	if a < b {
		return 0
	}
	return a - b
}

// clamp8 saturates a non-negative count into a flight-record Aux byte.
func clamp8(n int) uint8 {
	if n > 255 {
		return 255
	}
	return uint8(n)
}

// fpAux maps a conflict's false-positive verdict onto the flight Aux bit.
func fpAux(fp bool) uint8 {
	if fp {
		return flight.AuxFP
	}
	return 0
}

// abortPanic unwinds the current transaction body.
func abortPanic() { panic(tmapi.AbortError{}) }

// checkAlert polls for AOU alerts at an operation boundary. An alert on the
// TSW line means an enemy (or a strong-isolation access) wrote our status
// word: if it says aborted, unwind. Other alerts (line eviction) re-ALoad.
func (th *Thread) checkAlert() {
	sys := th.rt.sys
	line, ok := sys.TakeAlert(th.core)
	if !ok {
		return
	}
	if th.d == nil || !th.d.live {
		return
	}
	if sys.ReadWordRaw(th.d.tsw) == TSWAborted {
		abortPanic()
	}
	if line == th.d.tsw.Line() {
		// Spurious (capacity) alert: re-arm without recursing into the
		// alert check.
		sys.ALoad(th.ctx, th.core, th.d.tsw)
	}
}

// txnView adapts a Thread to tmapi.Txn with transactional semantics.
type txnView struct{ th *Thread }

// Load implements tmapi.Txn.
func (t txnView) Load(a memory.Addr) uint64 {
	th := t.th
	res := th.rt.sys.TLoad(th.ctx, th.core, a)
	// Record before the alert poll: the observed value belongs to this
	// attempt even if the poll aborts it (aborted reads are discarded by
	// the checker but keep the log structurally complete).
	th.rt.orc.Read(th.core, th.ctx.Now(), a, res.Val)
	th.d.karma++
	th.checkAlert()
	if th.rt.mode == Eager && len(res.Conflicts) > 0 {
		th.manageEager(res.Conflicts)
	}
	return res.Val
}

// Store implements tmapi.Txn.
func (t txnView) Store(a memory.Addr, v uint64) {
	th := t.th
	res := th.rt.sys.TStore(th.ctx, th.core, a, v)
	th.rt.orc.Write(th.core, th.ctx.Now(), a, v)
	th.d.karma++
	th.checkAlert()
	if th.rt.mode == Eager && len(res.Conflicts) > 0 {
		th.manageEager(res.Conflicts)
	}
}

// Abort implements tmapi.Txn.
func (t txnView) Abort() { panic(tmapi.AbortError{UserRequested: true}) }

// manageEager resolves freshly-reported conflicts immediately: the
// processor has effected a subroutine call to the CMPC handler.
func (th *Thread) manageEager(conflicts []tmesi.Conflict) {
	for _, c := range conflicts {
		th.resolveConflict(c)
	}
}

// resolveConflict runs the contention manager on one conflict until the
// enemy is gone (aborted, committed, or we abort ourselves).
func (th *Thread) resolveConflict(c tmesi.Conflict) {
	rt := th.rt
	th.ctx.Advance(rt.costs.CMInvoke)
	if c.Suspended {
		// Conflict with a descheduled transaction, surfaced by the summary
		// signatures; the OS-level handler (internal/osmodel) has already
		// arbitrated it. Nothing to do at user level.
		return
	}
	for attempt := 0; ; attempt++ {
		dec, wait := rt.mgr.OnConflict(cm.Conflict{
			Me:         th.core,
			Enemy:      c.Responder,
			MyKarma:    th.d.karma,
			EnemyKarma: rt.karmaOf(c.Responder),
			MyStamp:    th.d.stamp,
			EnemyStamp: rt.stampOf(c.Responder),
			Attempt:    attempt,
		}, th.rnd)
		switch dec {
		case cm.AbortSelf:
			flight.Emit(rt.tel, rt.fl, th.core, th.ctx.Now(), flight.AbortSelf, c.Responder, fpAux(c.FP), c.Line, 0)
			abortPanic()
		case cm.AbortEnemy:
			rt.tel.Inc(th.core, telemetry.CtrCMAbortEnemy)
			rt.fl.Rec(th.core, th.ctx.Now(), flight.AbortEnemy, c.Responder, fpAux(c.FP), c.Line)
			th.abortRemote(c.Responder)
			if h := rt.onAbortEnemy; h != nil {
				h(th, c.Responder)
			}
			th.clearLocalCST(c.Responder)
			return
		case cm.Wait:
			rt.tel.Observe(th.core, telemetry.HistCMWaitCycles, wait)
			th.stallCycles += wait
			th.ctx.Advance(wait)
			flight.Emit(rt.tel, rt.fl, th.core, th.ctx.Now(), flight.CMStall, c.Responder, fpAux(c.FP), c.Line, wait)
			status := th.enemyStatus(c.Responder)
			switch status {
			case TSWActive:
				// Still there: loop for another round.
			case TSWCommitted:
				if c.Msg == tmesi.Threatened {
					// The enemy's speculative write of a line we accessed
					// just committed: our copy is stale, we must restart.
					abortPanic()
				}
				// Exposed-Read enemy committed having read the old value:
				// it serialized before us; we may proceed.
				th.clearLocalCST(c.Responder)
				return
			default: // aborted or gone
				th.clearLocalCST(c.Responder)
				return
			}
		}
	}
}

// enemyStatus reads the status word of the transaction currently on core
// enemy via the per-processor descriptor table (ordinary loads).
func (th *Thread) enemyStatus(enemy int) uint64 {
	rt, sys := th.rt, th.rt.sys
	tswAddr := sys.Load(th.ctx, th.core, rt.tswEntry(enemy)).Val
	th.checkAlert()
	if tswAddr == 0 {
		return TSWInvalid
	}
	v := sys.Load(th.ctx, th.core, memory.Addr(tswAddr)).Val
	th.checkAlert()
	return v
}

// abortRemote aborts the transaction running on core enemy by CASing its
// TSW from active to aborted (Figure 3, line 3). Coherence serializes this
// against the enemy's own CAS-Commit.
func (th *Thread) abortRemote(enemy int) {
	rt, sys := th.rt, th.rt.sys
	tswAddr := sys.Load(th.ctx, th.core, rt.tswEntry(enemy)).Val
	th.checkAlert()
	if tswAddr == 0 {
		return
	}
	sys.CAS(th.ctx, th.core, memory.Addr(tswAddr), TSWActive, TSWAborted)
	th.checkAlert()
}

// clearLocalCST drops this core's conflict bits for enemy after the
// conflict has been resolved, so a clean CAS-Commit can proceed.
func (th *Thread) clearLocalCST(enemy int) {
	t := th.rt.sys.CST(th.core)
	t.Get(cst.WR).Clear(enemy)
	t.Get(cst.WW).Clear(enemy)
	t.Get(cst.RW).Clear(enemy)
	th.rt.tel.Add(th.core, telemetry.CtrCSTClear, 3)
	th.rt.fl.Rec(th.core, th.ctx.Now(), flight.CSTClear, enemy, 0, 0)
}

// commit implements END_TRANSACTION via the Commit() routine of Figure 3.
// Eager transactions normally find empty CSTs and just CAS-Commit; lazy
// transactions abort their W-R and W-W sets first. The loop handles
// conflicts that arrive concurrently with committing.
func (th *Thread) commit() {
	rt, sys := th.rt, th.rt.sys
	commitStart := th.ctx.Now()
	var resolved cst.Vec
	for spins := 0; ; {
		table := sys.CST(th.core)
		wr := table.Get(cst.WR).CopyAndClear()
		ww := table.Get(cst.WW).CopyAndClear()
		rt.tel.Add(th.core, telemetry.CtrCSTCopyClear, 2)
		if wr != 0 || ww != 0 {
			rt.fl.Rec(th.core, th.ctx.Now(), flight.CSTClear, -1, 0, 0)
		}
		rw := *table.Get(cst.RW)
		enemies := wr | ww
		if !rt.wrAborts {
			// Broken-protocol variant for the serializability oracle: spare
			// the transactions that read our old values (W-R), aborting only
			// rival writers (W-W). The spared readers commit on stale data.
			enemies = ww
		}
		for w := enemies; w != 0; w &= w - 1 {
			e := bits.TrailingZeros64(uint64(w))
			resolved.Set(e)
			// Signature screen: CST bits name processors, so a bit may
			// refer to a transaction that already finished. The enemy's
			// current signatures are software-visible registers; if they
			// provably do not intersect our write set, the conflicting
			// incarnation is gone and the abort would hit an innocent
			// successor. Skipping is sound: if the enemy touches our
			// write set after this check, the hardware re-sets our CST
			// bit and the CAS-Commit below fails, re-running this loop.
			if rt.sigScreen && sys.TxnActive(e) &&
				!sys.Rsig(e).Intersects(sys.Wsig(th.core)) &&
				!sys.Wsig(e).Intersects(sys.Wsig(th.core)) {
				th.ctx.Advance(rt.costs.CSTWrite) // register reads + AND
				continue
			}
			rt.fl.Rec(th.core, th.ctx.Now(), flight.AbortEnemy, e, 0, 0)
			th.abortRemote(e)
			if h := rt.onAbortEnemy; h != nil {
				h(th, e)
			}
		}
		out := sys.CASCommit(th.ctx, th.core, th.d.tsw, TSWActive, TSWCommitted)
		switch out {
		case tmesi.CommitOK:
			th.d.live = false
			// Record before any further time advances (the W-R scrub below
			// charges cycles, yielding the engine to other threads): the
			// commit's sequence stamp must precede every operation that can
			// observe its writes.
			rt.orc.Commit(th.core, th.ctx.Now())
			var fb uint8
			if th.inFallback {
				fb = 1
			}
			flight.Emit(rt.tel, rt.fl, th.core, th.ctx.Now(), flight.TxnCommit, -1, fb, 0, 0)
			st := &rt.stats[th.core]
			st.Commits++
			st.ConflictDegrees[resolved.Count()]++
			if rt.cleanWR {
				// Scrub our bit from the W-R of everyone whose write we
				// read, so their commits do not spuriously abort our next
				// transaction (Section 3.6).
				for w := rw; w != 0; w &= w - 1 {
					x := bits.TrailingZeros64(uint64(w))
					sys.CST(x).Get(cst.WR).Clear(th.core)
					rt.tel.Inc(th.core, telemetry.CtrCSTClear)
					rt.fl.Rec(th.core, th.ctx.Now(), flight.CSTClear, x, 0, 0)
					th.ctx.Advance(rt.costs.CSTWrite)
				}
			}
			if tel := rt.tel; tel != nil {
				now := th.ctx.Now()
				total := now - th.attemptStart
				commitOv := now - commitStart
				tel.Add(th.core, telemetry.CtrCycUseful,
					clampSub(total, commitOv+th.stallCycles))
				tel.Add(th.core, telemetry.CtrCycCommitOv, commitOv)
				tel.Add(th.core, telemetry.CtrCycStall, th.stallCycles)
				tel.Observe(th.core, telemetry.HistCommitCycles, total)
			}
			return
		case tmesi.CommitAborted:
			// Speculative state already flash-discarded by the hardware.
			abortPanic()
		case tmesi.CommitCSTFail:
			// New conflicts arrived between lines 1-3 and the CAS-Commit:
			// go around again (Figure 3, line 5). A streak of refusals —
			// relentless enemies or injected CAS-Commit races — is bounded:
			// past the budget the attempt converts into an abort, which the
			// retry path (and ultimately the watchdog) can see and escalate.
			spins++
			if lim := rt.live.MaxCommitRetries; lim > 0 && spins >= lim {
				abortPanic()
			}
		}
	}
}

// ClosedNested runs body as a closed-nested transaction inside the current
// one (an extension beyond the paper's subsumption model, which it lists as
// future work). The runtime value-logs the inner transaction's writes (old
// speculative values via TLoad) and, when body calls Abort, rolls back only
// those writes and retries body alone. Conflict-induced aborts still unwind
// the whole (flattened) transaction: the hardware has a single checkpoint.
// Calling ClosedNested outside a transaction is equivalent to Atomic.
func (th *Thread) ClosedNested(body func(tx tmapi.Txn)) {
	if th.depth == 0 {
		th.Atomic(body)
		return
	}
	th.depth++
	defer func() { th.depth-- }()
	for {
		inner := &nestedTxn{th: th, old: make(map[memory.Addr]uint64)}
		if th.runNested(inner, body) {
			return
		}
		// Inner-only rollback: restore the old speculative values in
		// reverse write order, then retry the inner body. The restores are
		// real speculative stores (they bypass txnView), so the oracle must
		// see them or the committed final values would look wrong.
		for i := len(inner.order) - 1; i >= 0; i-- {
			a := inner.order[i]
			th.rt.sys.TStore(th.ctx, th.core, a, inner.old[a])
			th.rt.orc.Write(th.core, th.ctx.Now(), a, inner.old[a])
		}
		th.ctx.Advance(th.rt.costs.AbortWork)
	}
}

// runNested executes body once, catching only user-requested aborts.
func (th *Thread) runNested(inner *nestedTxn, body func(tx tmapi.Txn)) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ae, isAbort := r.(tmapi.AbortError)
			if !isAbort || !ae.UserRequested {
				panic(r) // conflict aborts unwind the outer transaction
			}
		}
	}()
	body(inner)
	return true
}

// nestedTxn is the inner transaction's view: reads pass through; writes are
// value-logged on first touch so they can be undone individually.
type nestedTxn struct {
	th    *Thread
	old   map[memory.Addr]uint64
	order []memory.Addr
}

// Load implements tmapi.Txn.
func (n *nestedTxn) Load(a memory.Addr) uint64 { return txnView{n.th}.Load(a) }

// Store implements tmapi.Txn.
func (n *nestedTxn) Store(a memory.Addr, v uint64) {
	if _, seen := n.old[a]; !seen {
		// First inner write: remember the outer speculative value.
		n.old[a] = n.th.rt.sys.TLoad(n.th.ctx, n.th.core, a).Val
		n.order = append(n.order, a)
	}
	txnView{n.th}.Store(a, v)
}

// Abort implements tmapi.Txn: abort and retry only the inner transaction.
func (n *nestedTxn) Abort() { panic(tmapi.AbortError{UserRequested: true}) }
