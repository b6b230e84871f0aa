// Package oracle is a history-level serializability oracle for the FlexTM
// runtime. It has two halves:
//
//   - a Recorder, hooked into the runtime behind a nil=disabled interface
//     (mirroring internal/flight and internal/telemetry), that logs every
//     transactional operation of every attempt — reads with the value the
//     processor actually observed, writes with the value stored, and
//     begin/commit/abort boundaries — stamped with a global sequence number
//     that is exact because the sim engine resumes one thread at a time; and
//
//   - an offline checker (check.go) that reconstructs the direct
//     serialization graph of the committed history (W→R dependencies from
//     observed values, W→W from version order, R→W anti-dependencies) and
//     reports every cycle or single-read anomaly as a minimal witness
//     history: which transactions, which lines, and which CST bits should
//     have caught it.
//
// FlexTM's central claim is that distributed commit via CSTs — no commit
// token, no write-set broadcast — still yields serializable execution under
// both Eager and Lazy conflict resolution, with Bloom false positives, OT
// spills, and lost alerts in play. The oracle turns that claim into a
// machine-checkable property of every run: internal/stress drives randomized
// schedules through it, and the chaos campaign and LivelockProbe run with it
// enabled.
package oracle

import (
	"flextm/internal/memory"
	"flextm/internal/sim"
)

// OpKind classifies one logged operation.
type OpKind uint8

// Operation kinds. NT variants are ordinary (non-transactional) accesses;
// the checker models each as a singleton committed transaction, which is
// exactly the strong-isolation contract (Section 3.5 of the paper).
const (
	// OpBegin opens a transaction attempt on Core.
	OpBegin OpKind = iota
	// OpRead is a transactional load: Val is the value the processor
	// observed.
	OpRead
	// OpWrite is a transactional store: Val is the new (speculative) value.
	OpWrite
	// OpCommit seals the attempt: its writes became globally visible at
	// this instant (CAS-Commit's flash commit).
	OpCommit
	// OpAbort discards the attempt: none of its writes ever became visible.
	OpAbort
	// OpNTRead is an ordinary load outside (or alongside) any transaction.
	OpNTRead
	// OpNTWrite is an ordinary store; strong isolation serializes it
	// against every transaction.
	OpNTWrite

	NumOpKinds
)

var opNames = [NumOpKinds]string{
	OpBegin:   "begin",
	OpRead:    "read",
	OpWrite:   "write",
	OpCommit:  "commit",
	OpAbort:   "abort",
	OpNTRead:  "nt-read",
	OpNTWrite: "nt-write",
}

// String returns the kind's stable kebab-case name.
func (k OpKind) String() string {
	if k < NumOpKinds {
		return opNames[k]
	}
	return "op(?)"
}

// Op is one logged operation. Seq is a globally unique, monotonically
// increasing stamp: the engine runs exactly one simulated thread at a time,
// so Seq totally orders the run's operations (virtual-time ties included).
type Op struct {
	Seq  uint64      `json:"seq"`
	At   sim.Time    `json:"at"`
	Core int         `json:"core"`
	Kind OpKind      `json:"kind"`
	Addr memory.Addr `json:"addr,omitempty"`
	Val  uint64      `json:"val,omitempty"`
}

// History is a complete operation log plus the initial memory values known
// to the producer. Aborted attempts are retained (the checker skips their
// effects but tolerates their presence), so a History is a faithful record
// of what the hardware did, not just of what survived.
type History struct {
	Ops []Op
	// Initial maps addresses to their pre-run values. Addresses absent here
	// are inferred by the checker from the earliest read that precedes any
	// committed write.
	Initial map[memory.Addr]uint64
}

// Recorder logs operations. It is owned by the single-threaded simulation
// and needs no locking. A nil *Recorder is valid and disabled: every method
// returns immediately, so instrumentation sites call unconditionally.
//
// The log lives in fixed chunks of chunkOps ops: recording never re-copies
// what is already logged, and Check reads the chunks in place.
type Recorder struct {
	chunks  [][]Op // full chunks, then the one being filled
	seq     uint64
	initial map[memory.Addr]uint64
}

// chunkShift sets the chunk size: 4096 ops of 48 B each.
const (
	chunkShift = 12
	chunkOps   = 1 << chunkShift
)

// NewRecorder returns an empty, enabled recorder. Its chunk index starts
// with room for 64 chunks (256k ops; a 16-thread perfbench postmortem cell
// logs about 75k), so recording allocates nothing but the chunks.
func NewRecorder() *Recorder {
	return &Recorder{
		chunks:  make([][]Op, 0, 64),
		initial: make(map[memory.Addr]uint64),
	}
}

// Enabled reports whether the recorder stores anything.
func (r *Recorder) Enabled() bool { return r != nil }

// SetInitial registers the pre-run value of a word, sharpening the
// checker's version chains (unregistered addresses fall back to inference).
func (r *Recorder) SetInitial(a memory.Addr, v uint64) {
	if r == nil {
		return
	}
	r.initial[a] = v
}

func (r *Recorder) rec(core int, at sim.Time, k OpKind, a memory.Addr, v uint64) {
	if r == nil {
		return
	}
	r.seq++
	n := len(r.chunks)
	if n == 0 || len(r.chunks[n-1]) == chunkOps {
		r.chunks = append(r.chunks, make([]Op, 0, chunkOps))
		n++
	}
	r.chunks[n-1] = append(r.chunks[n-1], Op{Seq: r.seq, At: at, Core: core, Kind: k, Addr: a, Val: v})
}

// Begin logs the start of a transaction attempt on core.
func (r *Recorder) Begin(core int, at sim.Time) { r.rec(core, at, OpBegin, 0, 0) }

// Read logs a transactional load and the value it observed.
func (r *Recorder) Read(core int, at sim.Time, a memory.Addr, v uint64) {
	r.rec(core, at, OpRead, a, v)
}

// Write logs a transactional store of v.
func (r *Recorder) Write(core int, at sim.Time, a memory.Addr, v uint64) {
	r.rec(core, at, OpWrite, a, v)
}

// Commit logs a successful CAS-Commit: the attempt's writes became visible
// at this instant. Call it before the next synchronization point so the
// stamp falls inside the committing thread's engine turn.
func (r *Recorder) Commit(core int, at sim.Time) { r.rec(core, at, OpCommit, 0, 0) }

// Abort logs a discarded attempt.
func (r *Recorder) Abort(core int, at sim.Time) { r.rec(core, at, OpAbort, 0, 0) }

// NTRead logs an ordinary (non-transactional) load.
func (r *Recorder) NTRead(core int, at sim.Time, a memory.Addr, v uint64) {
	r.rec(core, at, OpNTRead, a, v)
}

// NTWrite logs an ordinary (non-transactional) store.
func (r *Recorder) NTWrite(core int, at sim.Time, a memory.Addr, v uint64) {
	r.rec(core, at, OpNTWrite, a, v)
}

// Len returns the number of logged operations (0 when nil).
func (r *Recorder) Len() int {
	if r == nil || len(r.chunks) == 0 {
		return 0
	}
	return (len(r.chunks)-1)*chunkOps + len(r.chunks[len(r.chunks)-1])
}

// Check runs the checker over the log as recorded so far, in place: the
// report is the one Check(r.History()) returns, without the copy.
func (r *Recorder) Check() *Report {
	if r == nil {
		return Check(History{})
	}
	return checkLog(opLog{chunks: r.chunks, shift: chunkShift}, r.initial, DefaultMaxViolations)
}

// History freezes the log into one flat slice. The returned History shares
// no state with the recorder, so the run may continue recording afterwards.
func (r *Recorder) History() History {
	if r == nil {
		return History{}
	}
	h := History{Initial: make(map[memory.Addr]uint64, len(r.initial))}
	if n := r.Len(); n > 0 {
		h.Ops = make([]Op, 0, n)
		for _, ch := range r.chunks {
			h.Ops = append(h.Ops, ch...)
		}
	}
	for a, v := range r.initial {
		h.Initial[a] = v
	}
	return h
}
