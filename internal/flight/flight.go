// Package flight is an always-on, near-zero-overhead flight recorder for
// the FlexTM machine: one fixed-size binary ring buffer per core, holding
// plain structs (no interface boxing, no per-event allocation) and
// overwriting the oldest records when full. Instrumentation sites record
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
// is two index computations and a struct store, with no allocation and no
// boxing.
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
	rings   [][]Rec
	written []uint64 // total records ever written per core
	lost    []uint64 // highest Seq overwritten by wrap-around, per core
	seq     uint64
	// restoredLost counts records that were already gone (overwritten
	// before the source snapshot) when this recorder was rebuilt by
	// Restore; Overwritten folds it in so a restored recorder reports the
	// same loss the live one did.
	restoredLost uint64
}

// DefaultPerCore is the default ring capacity per core: deep enough to hold
// the full conflict history of the paper-scale runs, small enough (40 B per
// record) to stay resident.
const DefaultPerCore = 4096

// New returns a recorder with perCore ring slots for each of cores cores.
// perCore <= 0 selects DefaultPerCore.
func New(cores, perCore int) *Recorder {
	if perCore <= 0 {
		perCore = DefaultPerCore
	}
	r := &Recorder{
		rings:   make([][]Rec, cores),
		written: make([]uint64, cores),
		lost:    make([]uint64, cores),
	}
	for i := range r.rings {
		r.rings[i] = make([]Rec, perCore)
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
	ring := r.rings[core]
	n := r.written[core]
	r.written[core] = n + 1
	r.seq++
	slot := &ring[n%uint64(len(ring))]
	if n >= uint64(len(ring)) {
		// Slots are overwritten in Seq order, so the record being evicted
		// carries the highest lost Seq for this core so far.
		r.lost[core] = slot.Seq
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
	for _, n := range r.written {
		t += n
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
	for i, n := range r.written {
		if size := uint64(len(r.rings[i])); n > size {
			t += n - size
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
	for i, ring := range r.rings {
		live += int(min(r.written[i], uint64(len(ring))))
	}
	if live == 0 {
		return nil
	}
	if out, ok := r.placeBySeq(live); ok {
		return out
	}
	out := make([]Rec, 0, live)
	for i, ring := range r.rings {
		out = append(out, ring[:min(r.written[i], uint64(len(ring)))]...)
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
	for i, ring := range r.rings {
		for _, rec := range ring[:min(r.written[i], uint64(len(ring)))] {
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
	for i, ring := range r.rings {
		if r.lost[i] > seq {
			gap = true
		}
		n := r.written[i]
		if n > uint64(len(ring)) {
			n = uint64(len(ring))
		}
		for _, rec := range ring[:n] {
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
	counts := make([]uint64, cores)
	var maxSeq, valid uint64
	for _, rec := range recs {
		if int(rec.Core) < 0 || int(rec.Core) >= cores {
			continue
		}
		counts[rec.Core]++
		valid++
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
	}
	r := &Recorder{
		rings:   make([][]Rec, cores),
		written: make([]uint64, cores),
		lost:    make([]uint64, cores),
		seq:     maxSeq,
	}
	if maxSeq > valid {
		r.restoredLost = maxSeq - valid
		// A lost record's core died with it, so the per-core watermarks
		// cannot be reconstructed exactly; what SnapshotSince needs is the
		// global property "some record with Seq > cursor is gone", which
		// holds for precisely the cursors below the highest missing Seq.
		lost := highestMissingSeq(recs, cores, maxSeq)
		for i := range r.lost {
			r.lost[i] = lost
		}
	}
	for i := range r.rings {
		n := counts[i]
		if n == 0 {
			// Keep every ring recordable: RecDur indexes modulo its length.
			n = 1
		}
		r.rings[i] = make([]Rec, n)
	}
	for _, rec := range recs {
		if int(rec.Core) < 0 || int(rec.Core) >= cores {
			continue
		}
		ring := r.rings[rec.Core]
		ring[r.written[rec.Core]%uint64(len(ring))] = rec
		r.written[rec.Core]++
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

// Reset discards all records (the rings stay allocated).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	for i := range r.written {
		r.written[i] = 0
		r.lost[i] = 0
	}
	r.seq = 0
	r.restoredLost = 0
}
