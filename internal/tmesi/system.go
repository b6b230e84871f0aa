// Package tmesi implements the FlexTM memory system: a 16-core CMP with
// private L1 caches and a shared L2, running the TMESI directory coherence
// protocol of Figure 1 in the paper — MESI extended with the PDI states TMI
// and TI, Bloom-filter access signatures, conflict summary tables,
// alert-on-update, and hardware-filled overflow tables.
//
// The simulator is functional + timing: every operation is executed
// atomically at the granularity of one memory operation (the sim engine
// resumes one thread at a time in virtual-time order), which removes
// protocol transients while preserving all architectural behaviour the
// paper depends on — Threatened/Exposed-Read responses, CST updates on both
// requestor and responder, multiple concurrent TMI owners, flash
// commit/abort, and overflow spill/fetch. Directory forwarding is modeled
// as one parallel probe round filtered by cache residency and signatures;
// because FlexTM's sharer lists are deliberately conservative and sticky
// (Section 4.1), this yields identical conflict outcomes.
//
// The directory keeps a holder index: per line, a mask of the cores whose
// L1 (set array or victim buffer) may hold a valid copy, and one mask of
// the cores running a transaction. The invariant the protocol relies on is
// a superset one: every valid L1 copy has its core's bit set, and no entry
// is zero. Bits are set at every fill and cleared at every invalidation,
// victim-buffer spill, flash drop and OT flush, and by any directory lookup
// that misses, so the index stays within the lines the L1s hold. A probe
// round visits only holders and transactional cores, in ascending core
// order, and looks up only holders; any other core would miss in its L1
// and have no signature to test, and such a visit changes nothing.
// ReadWordRaw and ForceWord walk holders only.
//
// The directory also keeps every core's Rsig and Wsig bit-sliced: for each
// filter bit, the mask of the cores whose signature has it set (rslices,
// wslices). All cores' signatures share one geometry (WidenSignatures swaps
// them together), so a round hashes its line once and ANDs the masks at its
// bank positions to learn every core's signature hits, as the controllers
// test their own signatures in parallel. Every change to a core's
// signatures goes through sigs.go, which keeps the index exact.
package tmesi

import (
	"fmt"

	"flextm/internal/aou"
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

// Config fixes the machine geometry and latency model. Defaults follow
// Table 3(a) of the paper.
type Config struct {
	Cores int

	L1     cache.Config
	L2Sets int
	L2Ways int
	Sig    signature.Config
	OTSets int
	OTWays int

	// Latencies, in cycles.
	L1Hit        sim.Time // L1 access
	L2Hit        sim.Time // L2 bank access
	MemLat       sim.Time // DRAM access on L2 miss
	NetHop       sim.Time // one interconnect link
	NetHops      int      // hops from core to L2 (4-ary tree over 16 cores: 2)
	OTAccess     sim.Time // overflow-table walk by the controller
	TrapLat      sim.Time // entry into a software handler (alert, OT alloc, summary)
	DrainPerLine sim.Time // OT copy-back occupancy per line (delays conflicting peers)
}

// DefaultConfig returns the paper's 16-way CMP configuration.
func DefaultConfig() Config {
	return Config{
		Cores:        16,
		L1:           cache.DefaultL1Config(),
		L2Sets:       16384, // 8 MB, 8-way, 64 B lines
		L2Ways:       8,
		Sig:          signature.DefaultConfig(),
		OTSets:       overflow.DefaultSets,
		OTWays:       overflow.DefaultWays,
		L1Hit:        1,
		L2Hit:        20,
		MemLat:       250,
		NetHop:       1,
		NetHops:      2,
		OTAccess:     40,
		TrapLat:      50,
		DrainPerLine: 10,
	}
}

// ResponseMsg is the signature-based response type a responder appends to a
// forwarded request (Figure 1's table).
type ResponseMsg int

const (
	// Shared / Invalidated: no conflict.
	NoConflict ResponseMsg = iota
	// Threatened: the requested line hit the responder's write signature.
	Threatened
	// ExposedRead: the requested line hit the responder's read signature
	// (write requests only).
	ExposedRead
)

// String returns the paper's message name.
func (m ResponseMsg) String() string {
	switch m {
	case NoConflict:
		return "Shared/Invalidated"
	case Threatened:
		return "Threatened"
	case ExposedRead:
		return "Exposed-Read"
	}
	return fmt.Sprintf("ResponseMsg(%d)", int(m))
}

// Conflict describes one conflicting response received by the requestor of
// a coherence request. In eager mode the runtime passes these to the
// conflict manager; in lazy mode they have already been absorbed into the
// CSTs and can be ignored.
type Conflict struct {
	Responder int
	Msg       ResponseMsg
	Line      memory.LineAddr // the line whose access raised the conflict
	FP        bool            // the responder's signature hit was a Bloom false positive
	Suspended bool            // conflict found via the summary signatures (descheduled txn)
}

// OpResult is the outcome of one memory operation.
type OpResult struct {
	Val uint64
	// Conflicts lists the conflicting responses to a TLoad's or TStore's
	// forwarding round, nil when there were none; the other operations
	// report none. The list lives in a buffer the requesting core reuses:
	// it stays valid until that core's next TLoad or TStore, whatever
	// other operations either core issues in between. SaveTxnState takes
	// the buffer with the descheduled thread and RestoreTxnState returns
	// it, so another thread's rounds on the core in between leave it be.
	Conflicts []Conflict
	WatchHit  bool // local access hit an activated watch signature (FlexWatcher)
}

// Stats aggregates machine-level event counts.
type Stats struct {
	Loads, Stores         uint64
	TLoads, TStores       uint64
	L1Hits, L1Misses      uint64
	L2Misses              uint64
	Probes                uint64
	ThreatenedResponses   uint64
	ExposedReadResponses  uint64
	StrongIsolationAborts uint64
	Overflows             uint64 // TMI lines spilled to an OT
	OTFetches             uint64 // lines fetched back from an OT
	OTAllocs              uint64 // first-overflow traps
	Alerts                uint64 // AOU alerts delivered
	FlashCommits          uint64
	FlashAborts           uint64
	CASCommitCSTFails     uint64
	SummaryTraps          uint64
}

type coreState struct {
	l1    *cache.Cache
	rsig  *signature.Sig
	wsig  *signature.Sig
	table cst.Table
	ot    *overflow.Table

	// AOU state: pending alerts and the count of A-marked lines.
	alerts aou.Unit

	// FlexWatcher: when true, every local access is tested against the
	// (activated) Rsig/Wsig and reports a WatchHit.
	sigWatch bool

	// Copy-back window: requests to lines in drainSig before drainUntil
	// stall behind the committed OT's copy-back.
	drainSig   *signature.Sig
	drainUntil sim.Time

	// conflicts holds the responses to the running thread's latest
	// transactional round (OpResult.Conflicts), reused round after round;
	// a context switch carries it in the SavedTxn.
	conflicts []Conflict

	// rppm and wppm cache predictedPPM of the signatures in audit mode;
	// filter lets a repeated insert skip hashing its line (sigs.go). The
	// filter comes last so the fields every op reads share cache lines.
	rppm, wppm uint64
	filter     insertFilter
}

// System is the simulated memory system shared by all cores.
type System struct {
	cfg   Config
	image *memory.Image
	alloc *memory.Allocator
	cores []coreState
	l2    *cache.TagCache
	stats Stats

	// holders maps a line to the mask of cores whose L1 may hold a valid
	// copy; active is the mask of cores in transactional mode. See the
	// package comment for the invariant.
	holders holderIndex
	active  uint64
	census  ProbeCensus

	// rslices and wslices index every core's Rsig and Wsig by filter bit
	// (slot = core); see the package comment and sigs.go.
	rslices, wslices *signature.Slices

	// broadcast makes probe rounds, ReadWordRaw and ForceWord visit every
	// core, as the model did before the holder index. sigScan makes probe
	// rounds visit every holder and transactional core and test each one's
	// signatures with MemberKey, as the model did before the sliced index.
	// Tests set them to check the indexes against the old rounds; nothing
	// else does.
	broadcast bool
	sigScan   bool

	// tel is the per-mechanism telemetry registry; nil means disabled
	// (telemetry.Registry methods are nil-safe, so instrumentation sites
	// call unconditionally).
	tel *telemetry.Registry

	// fl is the flight recorder; nil means disabled (flight.Recorder
	// methods are nil-safe). now is the virtual time of the operation in
	// progress, stamped at each public op's entry so interior protocol
	// sites (probe, invalidateLine, insertLine) can timestamp records
	// without threading a ctx through.
	fl  *flight.Recorder
	now sim.Time

	// Summary signatures installed at the directory for descheduled
	// transactions (Section 5), plus the handler the L2 traps into.
	summaryR    *signature.Sig
	summaryW    *signature.Sig
	summaryHook func(requestor int, line memory.LineAddr, write bool) []Conflict

	// strongIsolationHook is invoked when a non-transactional access
	// conflicts with core's active transaction (Section 3.5); the TM
	// runtime uses it to abort the victim's transaction.
	strongIsolationHook func(victim int)

	// inj, when non-nil, rolls deterministic fault injections at the
	// protocol's risk points (see internal/fault). All sites call through
	// nil-safe methods, so a detached injector costs one branch.
	inj *fault.Injector
}

// MaxCores is the largest machine New builds: the directory keeps core
// sets (holders, transactional cores) as 64-bit masks.
const MaxCores = 64

// New returns a memory system with the given configuration over a fresh
// committed image. A core count outside 1..MaxCores is a programming error
// and panics; callers taking the count from a user check it first.
func New(cfg Config) *System {
	if cfg.Cores <= 0 || cfg.Cores > MaxCores {
		panic("tmesi: core count must be in 1..64")
	}
	s := &System{
		cfg:     cfg,
		image:   memory.NewImage(),
		alloc:   memory.NewAllocator(),
		cores:   make([]coreState, cfg.Cores),
		l2:      cache.NewTagCache(cfg.L2Sets, cfg.L2Ways),
		rslices: signature.NewSlices(cfg.Sig, cfg.Cores),
		wslices: signature.NewSlices(cfg.Sig, cfg.Cores),
	}
	for i := range s.cores {
		l1 := cache.New(cfg.L1)
		l1.OnFlashDrop(func(line memory.LineAddr) { s.holders.drop(line, i) })
		c := &s.cores[i]
		c.l1 = l1
		c.rsig = signature.New(cfg.Sig)
		c.wsig = signature.New(cfg.Sig)
		c.filter.reset()
	}
	return s
}

// Config returns the machine configuration.
func (s *System) Config() Config { return s.cfg }

// Image exposes the committed memory image for zero-cost setup and
// verification (test/benchmark plumbing, not an architectural path).
func (s *System) Image() *memory.Image { return s.image }

// Alloc exposes the simulated heap allocator.
func (s *System) Alloc() *memory.Allocator { return s.alloc }

// Stats returns a snapshot of the machine counters.
func (s *System) Stats() Stats { return s.stats }

// ProbeCensus counts the host work of the directory's probe rounds. It
// describes the simulator, not the simulated machine, and is kept out of
// Stats, whose encoding is part of recorded simulation digests.
type ProbeCensus struct {
	Rounds  uint64 // forwarding rounds (L1 misses and upgrades that reach the directory)
	Visits  uint64 // responders visited: holders and transactional cores, requester excluded
	Lookups uint64 // responder L1 lookups (holders only)
	// NonHolder counts visits where a responder holding no copy of the
	// line answered from its signatures alone; NonHolderAlias is the part
	// of those whose every signature hit was spurious (a Bloom alias or an
	// injected one), counted only when the signatures are in audit mode.
	// A sticky sharer (Section 4.1) answers the same way for a line it
	// really accessed; an alias is a core no directory list would name.
	NonHolder      uint64
	NonHolderAlias uint64
}

// ProbeCensus returns the probe-round counters accumulated since New.
// A full broadcast would have made Rounds*(Cores-1) lookups.
func (s *System) ProbeCensus() ProbeCensus { return s.census }

// SetTelemetry attaches (or, with nil, detaches) a telemetry registry. The
// registry must be sized for at least Config().Cores cores. Attaching also
// switches every access signature into audit mode so membership tests can
// be split into true conflicts and Bloom false positives; attach before
// running transactions so the shadow sets are complete.
func (s *System) SetTelemetry(r *telemetry.Registry) {
	s.tel = r
	if r == nil {
		return
	}
	for i := range s.cores {
		c := &s.cores[i]
		c.rsig.EnableAudit()
		c.wsig.EnableAudit()
		// Lines inserted before audit was on are missing from the shadow
		// sets; a repeated insert must add them.
		c.filter.reset()
		c.refreshPPM()
	}
}

// Telemetry returns the attached registry (nil when telemetry is off).
func (s *System) Telemetry() *telemetry.Registry { return s.tel }

// SetFlight attaches (or, with nil, detaches) a flight recorder. The
// machine records protocol-level events (CST sets, alerts, OT spills,
// commit refusals) on it; the runtime layer adds transaction and
// conflict-management events on the same recorder.
func (s *System) SetFlight(r *flight.Recorder) { s.fl = r }

// Flight returns the attached flight recorder (nil when disabled).
func (s *System) Flight() *flight.Recorder { return s.fl }

// SetFaultInjector attaches (or, with nil, detaches) a fault injector.
// Attach before running transactions so the decision sequence — and with it
// the injected fault schedule — is a pure function of config and seed.
func (s *System) SetFaultInjector(inj *fault.Injector) { s.inj = inj }

// FaultInjector returns the attached injector (nil when faults are off).
func (s *System) FaultInjector() *fault.Injector { return s.inj }

// SetFaultImmunity exempts core from (or re-exposes it to) fault injection.
// The runtime's serialized fallback path sets it: escalated execution models
// software that has retreated to a defensive slow path, and exempting it
// guarantees forward progress even at injection rate 1. No-op without an
// injector.
func (s *System) SetFaultImmunity(core int, on bool) { s.inj.SetImmune(core, on) }

// CST returns core's conflict summary tables; they are software-visible
// registers in FlexTM.
func (s *System) CST(core int) *cst.Table { return &s.cores[core].table }

// Rsig returns core's read signature (software-visible).
func (s *System) Rsig(core int) *signature.Sig { return s.cores[core].rsig }

// Wsig returns core's write signature (software-visible).
func (s *System) Wsig(core int) *signature.Sig { return s.cores[core].wsig }

// OT returns core's overflow table, or nil if none has been allocated.
func (s *System) OT(core int) *overflow.Table { return s.cores[core].ot }

// TxnActive reports whether core is in transactional mode.
func (s *System) TxnActive(core int) bool { return s.active&coreBit(core) != 0 }

// SetStrongIsolationHook registers the runtime callback used to abort a
// transaction whose read/write set conflicts with a non-transactional
// access. The hook must not issue simulated memory operations; it should
// manipulate software state directly (e.g. via ForceWord).
func (s *System) SetStrongIsolationHook(h func(victim int)) { s.strongIsolationHook = h }

// InstallSummary installs (or, with nils, removes) the directory's summary
// signatures and the software handler the L2 traps into when an L1 miss
// hits them (Section 5).
func (s *System) InstallSummary(rs, ws *signature.Sig, hook func(requestor int, line memory.LineAddr, write bool) []Conflict) {
	s.summaryR, s.summaryW, s.summaryHook = rs, ws, hook
}

// WidenSignatures swaps every core's read and write signature to a new
// geometry, re-inserting each filter's precise member set so no conflict
// information is lost mid-transaction (Sig.Rehash). All cores change
// together — Intersects/Union/CopyFrom require matching geometries, so a
// partial widen would panic at the next cross-core test. It refuses, with
// an error and before it changes anything, a geometry cfg.Validate
// rejects. It also refuses (the governor retries on its next tick) when
// audit mode is off (no ground truth to rehash from — practically, when
// telemetry is detached) or while OS summary signatures are installed
// (they were built in the old geometry and would mismatch every per-core
// test).
func (s *System) WidenSignatures(cfg signature.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if s.summaryR != nil || s.summaryW != nil {
		return fmt.Errorf("tmesi: cannot rehash signatures while summary signatures are installed")
	}
	for i := range s.cores {
		if !s.cores[i].rsig.AuditEnabled() || !s.cores[i].wsig.AuditEnabled() {
			return fmt.Errorf("tmesi: signature rehash requires audit mode (attach telemetry)")
		}
	}
	for i := range s.cores {
		s.cores[i].rsig = s.cores[i].rsig.Rehash(cfg)
		s.cores[i].wsig = s.cores[i].wsig.Rehash(cfg)
		s.tel.Inc(i, telemetry.CtrGovSigWiden)
	}
	// Future consumers of the geometry (overflow Osig construction, summary
	// building, width ablations, probe keys) must see the new shape.
	s.cfg.Sig = cfg
	s.reindexSigs()
	return nil
}

// BeginTxn puts core into transactional mode. Signatures and CSTs are
// expected to be clear (they are after CASCommit/AbortFlash).
func (s *System) BeginTxn(core int) {
	if s.TxnActive(core) {
		panic(fmt.Sprintf("tmesi: BeginTxn on core %d with active transaction", core))
	}
	s.active |= coreBit(core)
}

func coreBit(core int) uint64 { return 1 << uint(core) }

// holdersOf returns the cores to look up for line, in a mask: its holders,
// or every core in broadcast mode.
func (s *System) holdersOf(line memory.LineAddr) uint64 {
	if s.broadcast {
		return 1<<uint(len(s.cores)) - 1
	}
	return s.holders.get(line)
}

// lookupHolder is core's L1 lookup of line on behalf of the directory. A
// miss clears core's holder bit.
func (s *System) lookupHolder(core int, line memory.LineAddr) *cache.Line {
	ln := s.cores[core].l1.Lookup(line)
	if ln == nil {
		s.holders.drop(line, core)
	}
	return ln
}

// netLat is the one-way core-to-L2 network latency.
func (s *System) netLat() sim.Time {
	return sim.Time(s.cfg.NetHops) * s.cfg.NetHop
}

// l2Round is the round-trip latency of an L1 miss serviced at the L2.
func (s *System) l2Round() sim.Time { return 2*s.netLat() + s.cfg.L2Hit }

// probeRound is the extra latency of one parallel forwarding round to other
// L1s (forward, tag/signature check, response).
func (s *System) probeRound() sim.Time { return 2*s.netLat() + s.cfg.L1Hit }

// LineState reports the L1 state of line in core's cache (Invalid if not
// resident). It exists for tests and diagnostics.
func (s *System) LineState(core int, line memory.LineAddr) cache.State {
	if ln := s.cores[core].l1.Lookup(line); ln != nil {
		return ln.State
	}
	return cache.Invalid
}
