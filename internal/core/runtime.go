// Package core implements the FlexTM runtime: the software side of the
// paper's contribution. It drives the decoupled hardware primitives of
// internal/tmesi — signatures, conflict summary tables, programmable data
// isolation, alert-on-update, and overflow tables — under software-chosen
// policy: eager or lazy conflict management with a pluggable contention
// manager.
//
// Each transaction is represented by a descriptor (Table 1 of the paper)
// whose transaction status word (TSW) lives in simulated memory, is ALoaded
// for abort notification, and is advertised in a per-processor table so
// enemies can abort it with an ordinary CAS. Commit follows Figure 3: in
// lazy mode the committer copy-and-clears its W-R and W-W CSTs, aborts
// exactly those processors, and CAS-Commits its own TSW — an entirely local
// protocol with no tokens, broadcasts, or ticket serialization.
package core

import (
	"fmt"

	"flextm/internal/baselines/cgl"
	"flextm/internal/cm"
	"flextm/internal/flight"
	"flextm/internal/memory"
	"flextm/internal/oracle"
	"flextm/internal/sim"
	"flextm/internal/telemetry"
	"flextm/internal/tmapi"
	"flextm/internal/tmesi"
)

// TSW values. A fresh slot is zero (invalid), so stale CAS attempts from
// old conflicts fail harmlessly.
const (
	TSWInvalid   = 0
	TSWActive    = 1
	TSWCommitted = 2
	TSWAborted   = 3
)

// Mode selects when conflicts are managed (Section 3.6).
type Mode int

const (
	// Eager: the conflict manager runs as soon as a Threatened or
	// Exposed-Read response arrives.
	Eager Mode = iota
	// Lazy: conflicts accumulate in the CSTs and are resolved locally at
	// commit time (Figure 3).
	Lazy
)

// String returns the mode name.
func (m Mode) String() string {
	if m == Eager {
		return "Eager"
	}
	return "Lazy"
}

// Costs are the software overheads charged by the runtime, in cycles.
type Costs struct {
	Begin     sim.Time // register checkpoint + descriptor setup
	CMInvoke  sim.Time // conflict-manager handler entry
	AbortWork sim.Time // abort handler software path
	CSTWrite  sim.Time // software write of a remote CST register
}

// DefaultCosts reflect the paper's observation that FlexTM's main software
// overhead is register checkpointing (spilling locals to the stack).
func DefaultCosts() Costs {
	return Costs{Begin: 40, CMInvoke: 20, AbortWork: 30, CSTWrite: 6}
}

// tswSlots is the number of status-word lines in each thread's arena.
// Fresh TSWs per transaction make stale enemy CASes miss by construction.
const tswSlots = 64

// backoffBoostCap bounds the governor's retry-back-off shift: beyond 2^16x
// a stretched window is indistinguishable from admission control, and an
// uncapped shift could overflow the (already capped) manager window.
const backoffBoostCap = 16

// admitPollTick is how long a thread parked at the admission gate waits
// between polls. Fixed and random-free, so gated schedules stay
// deterministic.
const admitPollTick sim.Time = 256

// Liveness bounds how long one Atomic section may flounder before the
// runtime escalates it to serialized-irrevocable mode. FlexTM's optimistic
// path guarantees only obstruction-freedom; under pathological contention —
// or under injected faults (spurious CST refusals, lost alerts) — a thread
// can abort indefinitely. The watchdog converts "retry forever" into
// "retry a bounded number of times, then take the global fallback lock and
// finish alone". A zero field disables that particular budget.
type Liveness struct {
	// MaxConsecAborts escalates after this many consecutive failed attempts
	// of a single Atomic section.
	MaxConsecAborts int
	// MaxStallCycles escalates once a single Atomic section has burned this
	// many cycles (attempts, back-off, and aborts included) without
	// committing.
	MaxStallCycles sim.Time
	// MaxCommitRetries bounds the Figure 3 commit loop: after this many
	// consecutive CommitCSTFail refusals within one attempt, the attempt is
	// converted into an abort so the watchdog above can observe it.
	MaxCommitRetries int
}

// DefaultLiveness is permissive enough that fault-free runs of the paper's
// workloads never escalate (contended lazy commits can legitimately refuse
// a few dozen times), while still bounding every injected-fault storm.
func DefaultLiveness() Liveness {
	return Liveness{MaxConsecAborts: 64, MaxStallCycles: 10_000_000, MaxCommitRetries: 512}
}

// desc is a transaction descriptor (Table 1). Policy-relevant fields are
// mirrored in Go for speed; the TSW itself lives in simulated memory.
type desc struct {
	tsw   memory.Addr
	karma int    // accesses so far (contention-manager priority)
	stamp uint64 // age: assigned at the transaction's first attempt
	gen   uint64 // the owning thread's attempt number (Thread.attempts)
	live  bool
}

// Runtime is a FlexTM instance over one simulated machine.
type Runtime struct {
	sys       *tmesi.System
	mode      Mode
	mgr       cm.Manager
	costs     Costs
	cleanWR   bool // scrub own bit from enemies' W-R after commit (Section 3.6)
	sigScreen bool // verify enemy signatures still intersect before aborting

	tswTable memory.Addr // per-core line holding the current TSW address
	arenas   [][]memory.Addr
	arenaIdx []int
	current  []*desc
	stats    []tmapi.Stats
	ageClock uint64

	// live bounds per-Atomic floundering; fallback is the global
	// serialized-irrevocable lock an escalated thread runs under. It is
	// allocated on first escalation so fault-free runs keep the exact
	// memory layout (and therefore cycle-exact behavior) of a runtime
	// without the escalation path. escActive counts threads currently
	// holding (or releasing) the lock; the fallback gate consults this
	// Go-side flag first — modeling the lock line resident shared in every
	// cache — so the un-escalated fast path costs nothing in simulated
	// time. The sim runs one goroutine at a time, so the counter is
	// deterministic and race-free.
	live      Liveness
	fallback  *cgl.Spinlock
	escActive int

	// Governor-controlled knobs (internal/governor). All default to the
	// neutral value, and every consult on the hot path is a single branch on
	// a Go-side field, so an ungoverned run pays nothing — in simulated time
	// or in allocations — for their existence.
	//
	// backoffBoost left-shifts every retry back-off the contention manager
	// returns (mitigation rung "scale the backoff"); admitLimit caps how many
	// threads may be inside an Atomic section at once (0 = unlimited), with
	// admitActive counting current holders; forceSerial routes every new
	// Atomic section straight through the serialized-irrevocable path (the
	// ladder's last rung, reusing the watchdog's escalation machinery).
	backoffBoost uint
	admitLimit   int
	admitActive  int
	forceSerial  bool

	// OnAbortYield, if set, runs in the aborted thread before its retry
	// back-off; the multiprogramming experiment (Figure 5e,f) uses it to
	// donate the CPU to background work.
	OnAbortYield func(th *Thread)

	// tel mirrors the machine's telemetry registry (captured at New; nil
	// when telemetry is off). The runtime charges contention-manager
	// decisions and per-transaction cycle attribution to it.
	tel *telemetry.Registry

	// fl mirrors the machine's flight recorder (captured at New; nil when
	// recording is off). The runtime records transaction-lifecycle and
	// contention-manager events alongside the protocol-level records the
	// machine writes itself.
	fl *flight.Recorder

	// orc is the serializability oracle's operation-log recorder (nil when
	// the oracle is off; every call site is nil-safe). It logs the values
	// application code actually observed and stored, so the offline checker
	// can reconstruct the direct serialization graph of the run.
	orc *oracle.Recorder

	// wrAborts gates the commit-time abort of W-R-named enemies (Figure 3,
	// line 2). Always true in a correct protocol; the oracle's stress suite
	// turns it off to prove the checker detects the resulting lost updates.
	wrAborts bool

	// OnFlightDump, if set, receives a snapshot of the flight recorder the
	// first time any core's liveness watchdog trips — the moment the run is
	// known to be pathological — so the contention history leading up to the
	// trip can be analyzed before escalation scrambles it. Invoked at most
	// once per runtime.
	OnFlightDump func(core int, recs []flight.Rec)
	flightDumped bool

	onAbortEnemy func(th *Thread, enemy int)
}

// New returns a FlexTM runtime in the given mode using manager mgr.
func New(sys *tmesi.System, mode Mode, mgr cm.Manager) *Runtime {
	cores := sys.Config().Cores
	rt := &Runtime{
		sys:       sys,
		mode:      mode,
		mgr:       mgr,
		costs:     DefaultCosts(),
		cleanWR:   true,
		sigScreen: true,
		arenas:    make([][]memory.Addr, cores),
		arenaIdx:  make([]int, cores),
		current:   make([]*desc, cores),
		stats:     make([]tmapi.Stats, cores),
		live:      DefaultLiveness(),
		tel:       sys.Telemetry(),
		fl:        sys.Flight(),
		wrAborts:  true,
	}
	rt.tswTable = sys.Alloc().Alloc(cores * memory.LineWords)
	for c := 0; c < cores; c++ {
		slots := make([]memory.Addr, tswSlots)
		for i := range slots {
			slots[i] = sys.Alloc().Alloc(memory.LineWords)
		}
		rt.arenas[c] = slots
	}
	sys.SetStrongIsolationHook(func(victim int) {
		d := rt.current[victim]
		if d != nil && d.live && sys.TxnActive(victim) {
			sys.ForceWord(d.tsw, TSWAborted)
		}
	})
	return rt
}

// Name implements tmapi.Runtime.
func (rt *Runtime) Name() string {
	return fmt.Sprintf("FlexTM(%s)", rt.mode)
}

// Mode returns the conflict-management mode.
func (rt *Runtime) Mode() Mode { return rt.mode }

// System returns the underlying memory system.
func (rt *Runtime) System() *tmesi.System { return rt.sys }

// SetCleanWR toggles the paper's spurious-abort avoidance (a committer
// scrubs its bit from the W-R register of everyone in its R-W).
func (rt *Runtime) SetCleanWR(on bool) { rt.cleanWR = on }

// SetLiveness overrides the watchdog budgets. Zero fields disable the
// corresponding budget.
func (rt *Runtime) SetLiveness(l Liveness) { rt.live = l }

// Liveness returns the current watchdog budgets.
func (rt *Runtime) Liveness() Liveness { return rt.live }

// SetOracle attaches (or detaches, with nil) a serializability-oracle
// recorder. The runtime then logs every transactional operation with the
// value observed or stored; see internal/oracle.
func (rt *Runtime) SetOracle(r *oracle.Recorder) { rt.orc = r }

// Oracle returns the attached oracle recorder (nil when the oracle is off).
func (rt *Runtime) Oracle() *oracle.Recorder { return rt.orc }

// SetWRAborts toggles the commit-time abort of enemies named by the
// committer's W-R CST (Figure 3, line 2). Disabling it deliberately breaks
// the protocol — committers spare transactions that read their old values,
// which then commit on stale data. It exists solely as the intentionally
// broken variant the serializability oracle must catch; see internal/stress.
func (rt *Runtime) SetWRAborts(on bool) { rt.wrAborts = on }

// SetCM swaps the contention manager live. Threads consult rt.mgr on every
// decision, so the new policy takes effect at the next conflict or retry;
// in-flight back-offs already charged are not revisited. The simulation runs
// one goroutine at a time, so the swap is race-free and deterministic.
func (rt *Runtime) SetCM(m cm.Manager) {
	if m != nil {
		rt.mgr = m
	}
}

// CM returns the contention manager currently in force.
func (rt *Runtime) CM() cm.Manager { return rt.mgr }

// SetBackoffBoost left-shifts every contention-manager retry back-off by
// shift (0 = neutral). The governor uses it to stretch retry windows without
// swapping the policy itself.
func (rt *Runtime) SetBackoffBoost(shift uint) {
	if shift > backoffBoostCap {
		shift = backoffBoostCap
	}
	rt.backoffBoost = shift
}

// BackoffBoost returns the current retry back-off shift.
func (rt *Runtime) BackoffBoost() uint { return rt.backoffBoost }

// SetAdmitLimit caps how many threads may run Atomic sections concurrently
// (0 = unlimited). Lowering the limit sheds load gradually: sections already
// admitted run to completion; new sections wait at the gate until a token
// frees up. Raising it re-admits waiters on their next poll.
func (rt *Runtime) SetAdmitLimit(n int) {
	if n < 0 {
		n = 0
	}
	rt.admitLimit = n
}

// AdmitLimit returns the admission-control cap (0 = unlimited).
func (rt *Runtime) AdmitLimit() int { return rt.admitLimit }

// AdmitActive returns how many threads currently hold admission tokens.
func (rt *Runtime) AdmitActive() int { return rt.admitActive }

// SetForceSerial routes every new Atomic section through the
// serialized-irrevocable fallback (the mitigation ladder's last rung).
// Sections already running optimistically finish or drain at the fallback
// gate as usual.
func (rt *Runtime) SetForceSerial(on bool) { rt.forceSerial = on }

// ForceSerial reports whether new sections are being serialized.
func (rt *Runtime) ForceSerial() bool { return rt.forceSerial }

// SetSigScreen toggles the commit-time signature screen: before aborting an
// enemy processor, verify its current (software-visible) signatures still
// intersect our write set; a provably-disjoint enemy is a successor of the
// transaction that actually conflicted and is spared. Sound because the
// CAS-Commit CST check catches any conflict that arrives after the screen.
func (rt *Runtime) SetSigScreen(on bool) { rt.sigScreen = on }

// Bind implements tmapi.Runtime.
func (rt *Runtime) Bind(ctx *sim.Ctx, core int) tmapi.Thread {
	return rt.BindThread(ctx, core)
}

// BindThread is Bind with a concrete return type, for callers that need
// FlexTM-specific controls.
func (rt *Runtime) BindThread(ctx *sim.Ctx, core int) *Thread {
	return &Thread{
		rt:   rt,
		ctx:  ctx,
		core: core,
		rnd:  sim.NewRand(uint64(core)*0x9E3779B9 + 0x1234567),
	}
}

// Stats implements tmapi.Runtime.
func (rt *Runtime) Stats() tmapi.Stats {
	var total tmapi.Stats
	for i := range rt.stats {
		total.Commits += rt.stats[i].Commits
		total.Aborts += rt.stats[i].Aborts
		total.Escalations += rt.stats[i].Escalations
		total.ConflictDegrees = append(total.ConflictDegrees, rt.stats[i].ConflictDegrees...)
	}
	return total
}

// dumpFlight hands the flight-recorder snapshot to OnFlightDump, once.
func (rt *Runtime) dumpFlight(core int) {
	if rt.flightDumped || rt.OnFlightDump == nil || rt.fl == nil {
		return
	}
	rt.flightDumped = true
	rt.OnFlightDump(core, rt.fl.Snapshot())
}

// tswEntry returns the address of core's slot in the TSW table.
func (rt *Runtime) tswEntry(core int) memory.Addr {
	return rt.tswTable + memory.Addr(core*memory.LineWords)
}

// nextTSW returns a fresh status-word address for core.
func (rt *Runtime) nextTSW(core int) memory.Addr {
	i := rt.arenaIdx[core]
	rt.arenaIdx[core] = (i + 1) % tswSlots
	return rt.arenas[core][i]
}

// karmaOf returns the contention-manager priority of the transaction
// currently on core (0 if none).
func (rt *Runtime) karmaOf(core int) int {
	if d := rt.current[core]; d != nil && d.live {
		return d.karma
	}
	return 0
}

// stampOf returns the age stamp of the transaction on core (0 if none).
func (rt *Runtime) stampOf(core int) uint64 {
	if d := rt.current[core]; d != nil && d.live {
		return d.stamp
	}
	return 0
}

// OnAbortEnemy, if set, runs whenever a thread aborts the transaction on an
// enemy core (eager arbitration or the lazy commit loop). The OS model uses
// it to peruse its conflict management table and also abort *suspended*
// transactions that were executing on that core (Section 5).
func (rt *Runtime) SetOnAbortEnemy(h func(th *Thread, enemy int)) { rt.onAbortEnemy = h }

// CurrentTSW returns the status-word address of the transaction currently
// live on core, or 0 when the core is between transactions. The OS uses it
// when suspending a thread.
func (rt *Runtime) CurrentTSW(core int) memory.Addr {
	if d := rt.current[core]; d != nil && d.live {
		return d.tsw
	}
	return 0
}

// TxnHandle is an opaque reference to a live transaction's descriptor, used
// by the OS model to detach a suspended transaction from its core and
// re-attach it on resume (another thread may run transactions on the core
// in between). A thread reuses its descriptor slots, so the handle also
// records the attempt it was taken from.
type TxnHandle struct {
	d   *desc
	gen uint64
}

// Valid reports whether the handle references a live transaction: the
// attempt it was taken from, not a later one reusing the descriptor.
func (h TxnHandle) Valid() bool { return h.d != nil && h.d.live && h.d.gen == h.gen }

// DetachTxn captures the live transaction on core (without clearing it);
// returns an invalid handle if none.
func (rt *Runtime) DetachTxn(core int) TxnHandle {
	if d := rt.current[core]; d != nil && d.live {
		return TxnHandle{d: d, gen: d.gen}
	}
	return TxnHandle{}
}

// AttachTxn re-advertises a detached transaction as the one running on
// core: the per-processor descriptor table again names its TSW, so enemies
// can abort it. ctx is charged for the table update.
func (rt *Runtime) AttachTxn(ctx *sim.Ctx, core int, h TxnHandle) {
	if !h.Valid() {
		return
	}
	rt.current[core] = h.d
	rt.sys.Store(ctx, core, rt.tswEntry(core), uint64(h.d.tsw))
}
