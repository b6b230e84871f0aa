// Package flight is an always-on, near-zero-overhead flight recorder for
// the FlexTM machine: one bounded binary ring buffer per core, holding
// plain structs (no interface boxing, no per-event allocation) and
// overwriting the oldest records when full. A ring's capacity is a bound,
// not a reservation: its storage grows with the records written, doubling
// from a few hundred up to the bound, so a recorder costs what a run
// records rather than what it could hold. Instrumentation sites record
// unconditionally through nil-safe methods, mirroring internal/telemetry
// and internal/fault, so a detached recorder costs one predictable branch.
//
// The recorder captures the events the conflict-graph analyzer
// (internal/conflictgraph) needs to *explain* aborts rather than merely
// count them: transaction begin/commit/abort, CST set/clear with the
// conflict type (R-W/W-R/W-W) and peer core, contention-manager kills,
// AOU alerts, overflow-table spills, CAS-Commit refusals, and
// watchdog/escalation events. On a watchdog trip — or on demand via
// `flextm -profile` — the rings are snapshotted and analyzed post mortem.
package flight

import (
	"fmt"
	"slices"
	"sort"

	"flextm/internal/memory"
	"flextm/internal/sim"
)

// Kind classifies one recorded event.
type Kind uint8

// Event kinds. Aux carries kind-specific detail (see each comment).
const (
	// TxnBegin: a transaction attempt started on Core.
	TxnBegin Kind = iota
	// TxnCommit: the attempt committed. Aux=1 when inside the serialized
	// fallback.
	TxnCommit
	// TxnAbort: the attempt aborted (any cause).
	TxnAbort
	// AbortEnemy: Core CASed Peer's status word to aborted (eager CM verdict
	// or the lazy commit loop of Figure 3).
	AbortEnemy
	// AbortSelf: the contention manager told Core to abort itself; Peer is
	// the enemy it yielded to.
	AbortSelf
	// CSTSet: the protocol set conflict bits between Core (the requestor)
	// and Peer (the responder). Aux is the cst.Kind recorded in the
	// requestor's table (R-W, W-R, or W-W); Line is the conflicting line.
	CSTSet
	// CSTClear: software cleared Core's conflict bits for Peer (-1 means a
	// commit-time copy-and-clear of the whole W-R/W-W registers).
	CSTClear
	// AOUAlert: an alert-on-update trap was delivered to Core for Line.
	AOUAlert
	// OTSpill: Core spilled the speculative Line to its overflow table.
	OTSpill
	// CommitRefused: Core's CAS-Commit returned CommitCSTFail (non-empty
	// W-R/W-W, or an injected commit race).
	CommitRefused
	// WatchdogTrip: Core's liveness watchdog tripped; Aux is the consecutive
	// abort count, clamped to 255.
	WatchdogTrip
	// Escalate: Core entered the serialized-irrevocable fallback.
	Escalate
	// GovStep: the resilience governor moved on its mitigation ladder.
	// Peer is the level it left, Aux the level it entered (Core is the
	// governor's home core, 0).
	GovStep
	// CMStall: the contention manager held Core for Dur cycles behind Peer
	// (the enemy it waited on); Line is the conflicting line.
	CMStall
	// Backoff: Core sat out Dur cycles of post-abort retry back-off. Aux is
	// the consecutive-abort count, clamped to 255.
	Backoff

	NumKinds
)

var kindNames = [NumKinds]string{
	TxnBegin:      "begin",
	TxnCommit:     "commit",
	TxnAbort:      "abort",
	AbortEnemy:    "abort-enemy",
	AbortSelf:     "abort-self",
	CSTSet:        "cst-set",
	CSTClear:      "cst-clear",
	AOUAlert:      "aou-alert",
	OTSpill:       "ot-spill",
	CommitRefused: "commit-refused",
	WatchdogTrip:  "watchdog-trip",
	Escalate:      "escalate",
	GovStep:       "governor-step",
	CMStall:       "cm-stall",
	Backoff:       "backoff",
}

// AuxFP is set in Aux, alongside the kind-specific low bits, when the
// conflict behind the record was a signature false positive (Bloom aliasing
// detected by audit mode, or an injected fault.SigFalsePos). It applies to
// CSTSet, AbortEnemy, AbortSelf, and CMStall records; mask with AuxMask to
// recover the low operand (e.g. the cst.Kind of a CSTSet).
const (
	AuxFP   uint8 = 0x80
	AuxMask uint8 = 0x7f
)

// String returns the kind's stable kebab-case name.
func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Rec is one recorded event. It is a fixed-size value type: recording one
// is two index computations and a struct store, with no boxing, and with
// no allocation except when a ring doubles its storage.
type Rec struct {
	At   sim.Time        // virtual time of the enclosing operation
	Dur  sim.Time        // sub-phase duration (CMStall, Backoff); 0 otherwise
	Line memory.LineAddr // line operand (0 when not applicable)
	Seq  uint64          // global record order (ties in At are common)
	Core int16           // the core the event happened on
	Peer int16           // the other core (-1 when not applicable)
	Kind Kind
	Aux  uint8 // kind-specific operand (cst.Kind, abort count, FP bit, ...)
}

// Recorder is the per-core ring store. A nil *Recorder is valid and means
// "disabled": Rec returns immediately.
type Recorder struct {
	rings []ring
	seq   uint64
	// restoredLost counts records that were already gone (overwritten
	// before the source snapshot) when this recorder was rebuilt by
	// Restore; Overwritten folds it in so a restored recorder reports the
	// same loss the live one did.
	restoredLost uint64
}

// ring is one core's records. Its storage grows on demand until it holds
// size records, and from then on the ring wraps: the record written n-th
// (from 0) sits at recs[n%size], so the live records are always
// recs[:min(written, size)]. Everything that asks how many records a ring
// holds reads size, never len(recs), which is smaller until the ring fills.
type ring struct {
	recs    []Rec
	size    uint64 // capacity bound
	written uint64 // total records ever written
	lost    uint64 // highest Seq overwritten by wrap-around
}

// live returns the ring's live records in slot order.
func (rg *ring) live() []Rec { return rg.recs[:min(rg.written, rg.size)] }

// initialRing is the storage a ring takes at its first record; each later
// growth doubles it, up to the ring's size.
const initialRing = 256

// grow makes room for the record at recs[len(recs)]. Records are stored
// in slot order until the ring wraps, so the old ones copy over as they are.
func (rg *ring) grow() {
	n := uint64(len(rg.recs))
	recs := make([]Rec, min(max(2*n, initialRing), rg.size))
	copy(recs, rg.recs)
	rg.recs = recs
}

// DefaultPerCore is the default ring capacity per core: deep enough to hold
// the full conflict history of the paper-scale runs. It bounds a ring
// rather than sizing it up front, so a deeper bound costs nothing until a
// run records that much (40 B per record).
const DefaultPerCore = 4096

// New returns a recorder whose ring for each of cores cores holds up to
// perCore records; perCore <= 0 selects DefaultPerCore. New reserves no
// ring storage: each ring grows with the records written to it.
func New(cores, perCore int) *Recorder {
	if perCore <= 0 {
		perCore = DefaultPerCore
	}
	r := &Recorder{rings: make([]ring, cores)}
	for i := range r.rings {
		r.rings[i].size = uint64(perCore)
	}
	return r
}

// Enabled reports whether the recorder stores anything.
func (r *Recorder) Enabled() bool { return r != nil }

// Rec records one event on core. The oldest record of that core's ring is
// overwritten when full. Safe (and free) on a nil recorder.
func (r *Recorder) Rec(core int, at sim.Time, k Kind, peer int, aux uint8, line memory.LineAddr) {
	r.RecDur(core, at, k, peer, aux, line, 0)
}

// RecDur records one event carrying a sub-phase duration (CMStall, Backoff).
// Safe (and free) on a nil recorder.
func (r *Recorder) RecDur(core int, at sim.Time, k Kind, peer int, aux uint8, line memory.LineAddr, dur sim.Time) {
	if r == nil {
		return
	}
	rg := &r.rings[core]
	n := rg.written
	rg.written = n + 1
	r.seq++
	var slot *Rec
	if n < rg.size {
		if n == uint64(len(rg.recs)) {
			rg.grow()
		}
		slot = &rg.recs[n]
	} else {
		slot = &rg.recs[n%rg.size]
		// Slots are overwritten in Seq order, so the record being evicted
		// carries the highest lost Seq for this core so far.
		rg.lost = slot.Seq
	}
	*slot = Rec{
		At: at, Dur: dur, Line: line, Seq: r.seq,
		Core: int16(core), Peer: int16(peer), Kind: k, Aux: aux,
	}
}

// Written returns the total number of records ever recorded.
func (r *Recorder) Written() uint64 {
	if r == nil {
		return 0
	}
	var t uint64
	for i := range r.rings {
		t += r.rings[i].written
	}
	return t
}

// Overwritten returns how many records have been lost to ring wrap-around;
// a non-zero value means Snapshot covers only the most recent interval.
// For a recorder rebuilt by Restore, the count includes the records the
// original recorder had already lost before its snapshot was taken.
func (r *Recorder) Overwritten() uint64 {
	if r == nil {
		return 0
	}
	t := r.restoredLost
	for i := range r.rings {
		if rg := &r.rings[i]; rg.written > rg.size {
			t += rg.written - rg.size
		}
	}
	return t
}

// Snapshot returns a copy of every live record across all rings, sorted by
// record order (Seq, which refines At). The rings are left untouched, so a
// watchdog dump does not disturb a later end-of-run profile.
func (r *Recorder) Snapshot() []Rec {
	if r == nil {
		return nil
	}
	live := 0
	for i := range r.rings {
		live += len(r.rings[i].live())
	}
	if live == 0 {
		return nil
	}
	if out, ok := r.placeBySeq(live); ok {
		return out
	}
	out := make([]Rec, 0, live)
	for i := range r.rings {
		out = append(out, r.rings[i].live()...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// placeBySeq is Snapshot without a sort, for a recorder that lost nothing:
// its live records carry every Seq in 1..live once, so each goes straight
// to out[Seq-1]. It reports false, and Snapshot sorts, when any record was
// lost (a wrapped ring, a restored loss) or a Seq is out of place (a
// restored snapshot from disk may repeat one).
func (r *Recorder) placeBySeq(live int) ([]Rec, bool) {
	if uint64(live) != r.seq || r.restoredLost != 0 {
		return nil, false
	}
	out := make([]Rec, live)
	for i := range r.rings {
		for _, rec := range r.rings[i].live() {
			if rec.Seq == 0 || rec.Seq > uint64(live) || out[rec.Seq-1].Seq != 0 {
				return nil, false
			}
			out[rec.Seq-1] = rec
		}
	}
	return out, true
}

// SnapshotSince returns the live records with Seq > seq, sorted by record
// order: the incremental form of Snapshot, used by the observatory pump to
// pull only the window recorded since its previous sample. The returned
// slice is always Seq-monotone; gap reports whether any record with
// Seq > seq has already been lost to ring wrap-around (a stale cursor), in
// which case the slice covers only the surviving suffix of the interval.
func (r *Recorder) SnapshotSince(seq uint64) (out []Rec, gap bool) {
	if r == nil {
		return nil, false
	}
	for i := range r.rings {
		rg := &r.rings[i]
		if rg.lost > seq {
			gap = true
		}
		for _, rec := range rg.live() {
			if rec.Seq > seq {
				out = append(out, rec)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out, gap
}

// Restore rebuilds a recorder from a previously captured Snapshot, for
// consumers that analyze a run post mortem (conflictgraph, causal) without
// having run it — the sweep cell cache's rehydration path. The restored
// recorder's Snapshot returns exactly the given records; records lost to
// ring wrap-around before the original snapshot are gone for good, which
// is also what a live recorder would report. The loss itself is preserved,
// not dropped: sequence numbers are globally contiguous from 1, so any
// hole up to the highest Seq is a record the original recorder overwrote.
// The restored recorder counts the holes in Overwritten and seeds its gap
// watermarks with the highest missing Seq, so SnapshotSince reports a gap
// for exactly the cursors the live recorder would have flagged. Records
// naming a core outside [0, cores) are dropped rather than trusted — the
// input may come from disk.
func Restore(cores int, recs []Rec) *Recorder {
	r := &Recorder{rings: make([]ring, cores)}
	var valid uint64
	for _, rec := range recs {
		if int(rec.Core) < 0 || int(rec.Core) >= cores {
			continue
		}
		r.rings[rec.Core].size++
		valid++
		r.seq = max(r.seq, rec.Seq)
	}
	if r.seq > valid {
		r.restoredLost = r.seq - valid
		// A lost record's core died with it, so the per-core watermarks
		// cannot be reconstructed exactly; what SnapshotSince needs is the
		// global property "some record with Seq > cursor is gone", which
		// holds for precisely the cursors below the highest missing Seq.
		lost := highestMissingSeq(recs, cores, r.seq)
		for i := range r.rings {
			r.rings[i].lost = lost
		}
	}
	// Every ring is exactly as deep as its records, so one block holds
	// them all.
	block := make([]Rec, valid)
	for i := range r.rings {
		rg := &r.rings[i]
		rg.recs, block = block[:rg.size:rg.size], block[rg.size:]
		// Keep every ring recordable: RecDur wraps modulo its size.
		rg.size = max(rg.size, 1)
	}
	for _, rec := range recs {
		if int(rec.Core) < 0 || int(rec.Core) >= cores {
			continue
		}
		rg := &r.rings[rec.Core]
		rg.recs[rg.written] = rec
		rg.written++
	}
	return r
}

// highestMissingSeq returns the highest Seq in [1, maxSeq] that no record
// naming a core in [0, cores) carries. Restore calls it only when some Seq
// is missing, so a lossless restore never builds the lookup. Sorting the
// present Seqs bounds the work by the records, not by maxSeq, which may
// come from disk.
func highestMissingSeq(recs []Rec, cores int, maxSeq uint64) uint64 {
	seqs := make([]uint64, 0, len(recs))
	for _, rec := range recs {
		if int(rec.Core) >= 0 && int(rec.Core) < cores {
			seqs = append(seqs, rec.Seq)
		}
	}
	slices.Sort(seqs)
	// Walk down from maxSeq: want is the next Seq that must be present.
	want := maxSeq
	for i := len(seqs) - 1; i >= 0 && want >= 1; i-- {
		switch {
		case seqs[i] > want: // a duplicate of a Seq already matched
		case seqs[i] == want:
			want--
		default:
			return want
		}
	}
	return want
}

// Reset discards all records. Each ring keeps its capacity and the storage
// it has grown so far, so a reused recorder records without allocating
// again up to the depth it reached before.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	for i := range r.rings {
		r.rings[i].written = 0
		r.rings[i].lost = 0
	}
	r.seq = 0
	r.restoredLost = 0
}
