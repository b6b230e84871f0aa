package oracle

import (
	"bytes"
	"encoding/json"
	"runtime"
	"runtime/debug"
	"testing"

	"flextm/internal/memory"
	"flextm/internal/sim"
)

// hb builds histories fluently for tests. Each call appends one op with an
// auto-incremented sequence stamp (At mirrors Seq; the checker only uses
// order).
type hb struct {
	h History
}

func newHB() *hb {
	return &hb{h: History{Initial: make(map[memory.Addr]uint64)}}
}

func (b *hb) init(a memory.Addr, v uint64) *hb {
	b.h.Initial[a] = v
	return b
}

func (b *hb) op(core int, k OpKind, a memory.Addr, v uint64) *hb {
	seq := uint64(len(b.h.Ops) + 1)
	b.h.Ops = append(b.h.Ops, Op{Seq: seq, At: seq, Core: core, Kind: k, Addr: a, Val: v})
	return b
}

func (b *hb) begin(core int) *hb                          { return b.op(core, OpBegin, 0, 0) }
func (b *hb) read(core int, a memory.Addr, v uint64) *hb  { return b.op(core, OpRead, a, v) }
func (b *hb) write(core int, a memory.Addr, v uint64) *hb { return b.op(core, OpWrite, a, v) }
func (b *hb) commit(core int) *hb                         { return b.op(core, OpCommit, 0, 0) }
func (b *hb) abort(core int) *hb                          { return b.op(core, OpAbort, 0, 0) }

func check(t *testing.T, h History) *Report {
	t.Helper()
	rep := Check(h)
	var buf bytes.Buffer
	rep.Print(&buf)
	t.Logf("report:\n%s", buf.String())
	return rep
}

func hasKind(rep *Report, kind string) bool {
	for _, v := range rep.Violations {
		if v.Kind == kind {
			return true
		}
	}
	return false
}

func TestCleanSerialHistory(t *testing.T) {
	// Two transactions incrementing the same counter back-to-back, plus a
	// reader: the textbook serializable history.
	h := newHB().init(100, 0).
		begin(0).read(0, 100, 0).write(0, 100, 1).commit(0).
		begin(1).read(1, 100, 1).write(1, 100, 2).commit(1).
		begin(2).read(2, 100, 2).commit(2).
		h
	rep := check(t, h)
	if !rep.Ok() {
		t.Fatalf("clean history flagged: %+v", rep.Violations)
	}
	if rep.Txns != 3 || rep.Reads != 3 || rep.Writes != 2 {
		t.Fatalf("counts = %d txns %d reads %d writes", rep.Txns, rep.Reads, rep.Writes)
	}
}

func TestInterleavedSerializable(t *testing.T) {
	// Overlapping in real time but serializable: T0 and T1 touch disjoint
	// addresses; T2 reads both after.
	h := newHB().init(1, 10).init(2, 20).
		begin(0).begin(1).
		read(0, 1, 10).read(1, 2, 20).
		write(0, 1, 11).write(1, 2, 21).
		commit(0).commit(1).
		begin(2).read(2, 1, 11).read(2, 2, 21).commit(2).
		h
	if rep := check(t, h); !rep.Ok() {
		t.Fatalf("disjoint interleaving flagged: %+v", rep.Violations)
	}
}

func TestLostUpdateStaleRead(t *testing.T) {
	// T1 reads the pre-T0 value after T0 committed, then overwrites: the
	// lost-update anomaly. Must surface as a stale read and a DSR cycle
	// (T0 -WW-> T1 and T1 -RW-> T0).
	h := newHB().init(100, 0).
		begin(0).read(0, 100, 0).write(0, 100, 1).commit(0).
		begin(1).read(1, 100, 0). // stale: 1 was committed before this read
		write(1, 100, 10).commit(1).
		h
	rep := check(t, h)
	if rep.Ok() {
		t.Fatal("lost update not detected")
	}
	if !hasKind(rep, VStaleRead) {
		t.Fatalf("no stale-read violation: %+v", rep.Violations)
	}
	if !hasKind(rep, VCycle) {
		t.Fatalf("no dsr-cycle violation: %+v", rep.Violations)
	}
	// The stale-read witness must include both transactions and the line.
	for _, v := range rep.Violations {
		if v.Kind != VStaleRead {
			continue
		}
		if len(v.Witness) < 2 {
			t.Fatalf("stale-read witness has %d txns, want >= 2", len(v.Witness))
		}
		if len(v.Edges) == 0 {
			t.Fatal("stale-read violation carries no edges")
		}
		for _, e := range v.Edges {
			if e.CST == "" {
				t.Fatalf("edge %+v missing CST hint", e)
			}
		}
	}
}

func TestWriteSkewCycle(t *testing.T) {
	// Classic write skew: T0 reads A,B writes A; T1 reads A,B writes B;
	// both read the initial snapshot, both commit. Each anti-depends on
	// the other: pure RW-RW cycle with no stale read (every read saw the
	// version current at its own instant? No — here reads precede both
	// commits, so each read IS current; only the cycle flags it).
	h := newHB().init(1, 5).init(2, 5).
		begin(0).begin(1).
		read(0, 1, 5).read(0, 2, 5).
		read(1, 1, 5).read(1, 2, 5).
		write(0, 1, 0).write(1, 2, 0).
		commit(0).commit(1).
		h
	rep := check(t, h)
	if !hasKind(rep, VCycle) {
		t.Fatalf("write skew not detected as dsr-cycle: %+v", rep.Violations)
	}
	// Write skew has no single-read anomaly: reads were current when made.
	if hasKind(rep, VStaleRead) || hasKind(rep, VFutureRead) || hasKind(rep, VPhantomValue) {
		t.Fatalf("write skew misdiagnosed with a read anomaly: %+v", rep.Violations)
	}
}

func TestDirtyReadFutureRead(t *testing.T) {
	// T1 observes T0's write before T0 commits (PDI leak): future read.
	h := newHB().init(100, 0).
		begin(0).write(0, 100, 7).
		begin(1).read(1, 100, 7). // T0 has not committed yet
		commit(1).
		commit(0).
		h
	rep := check(t, h)
	if !hasKind(rep, VFutureRead) {
		t.Fatalf("dirty read not detected: %+v", rep.Violations)
	}
}

func TestPhantomValue(t *testing.T) {
	// A committed read of a value nothing ever wrote.
	h := newHB().init(100, 0).
		begin(0).read(0, 100, 42).commit(0).
		h
	rep := check(t, h)
	if !hasKind(rep, VPhantomValue) {
		t.Fatalf("phantom value not detected: %+v", rep.Violations)
	}
}

func TestInternalReadMismatch(t *testing.T) {
	// A transaction reads back its own pending write and sees the wrong
	// value: broken speculative versioning.
	h := newHB().init(100, 0).
		begin(0).write(0, 100, 3).read(0, 100, 9).commit(0).
		h
	rep := check(t, h)
	if !hasKind(rep, VInternalRead) {
		t.Fatalf("internal-read mismatch not detected: %+v", rep.Violations)
	}
}

func TestOwnWriteReadBack(t *testing.T) {
	// Reading back one's own pending write is fine and creates no edges.
	h := newHB().init(100, 0).
		begin(0).write(0, 100, 3).read(0, 100, 3).write(0, 100, 4).commit(0).
		h
	if rep := check(t, h); !rep.Ok() {
		t.Fatalf("own-write read-back flagged: %+v", rep.Violations)
	}
}

func TestAbortedAttemptDiscarded(t *testing.T) {
	// An aborted attempt's writes must not enter the version order, and
	// its reads must not be checked.
	h := newHB().init(100, 0).
		begin(0).read(0, 100, 0).write(0, 100, 99).abort(0).
		begin(1).read(1, 100, 0).write(1, 100, 1).commit(1).
		h
	rep := check(t, h)
	if !rep.Ok() {
		t.Fatalf("aborted attempt polluted the analysis: %+v", rep.Violations)
	}
	if rep.Aborted != 1 {
		t.Fatalf("Aborted = %d, want 1", rep.Aborted)
	}
}

func TestRetryAfterAbort(t *testing.T) {
	// The standard retry shape: attempt aborts (having observed a value
	// that then changed), retry observes the new value and commits.
	h := newHB().init(100, 0).
		begin(0).read(0, 100, 0).
		begin(1).read(1, 100, 0).write(1, 100, 1).commit(1).
		abort(0).
		begin(0).read(0, 100, 1).write(0, 100, 2).commit(0).
		h
	if rep := check(t, h); !rep.Ok() {
		t.Fatalf("retry history flagged: %+v", rep.Violations)
	}
}

func TestInferredInitialValue(t *testing.T) {
	// No Initial map at all: the first pre-write read fixes version 0.
	h := newHB().
		begin(0).read(0, 100, 7).write(0, 100, 8).commit(0).
		begin(1).read(1, 100, 8).commit(1).
		h
	h.Initial = nil
	if rep := check(t, h); !rep.Ok() {
		t.Fatalf("inference failed: %+v", rep.Violations)
	}
}

func TestNonTxAccessesAreSingletons(t *testing.T) {
	// NT write then a transaction reading it, then an NT read of the
	// transaction's write: strong isolation as singleton txns.
	h := newHB().init(100, 0).
		op(0, OpNTWrite, 100, 5).
		begin(1).read(1, 100, 5).write(1, 100, 6).commit(1).
		op(0, OpNTRead, 100, 6).
		h
	rep := check(t, h)
	if !rep.Ok() {
		t.Fatalf("NT history flagged: %+v", rep.Violations)
	}
	if rep.Txns != 3 {
		t.Fatalf("Txns = %d, want 3 (two singletons + one txn)", rep.Txns)
	}
}

func TestTruncatedLogTolerated(t *testing.T) {
	// A log cut mid-transaction: the open attempt is counted as truncated,
	// not treated as committed or flagged.
	h := newHB().init(100, 0).
		begin(0).read(0, 100, 0).write(0, 100, 1).commit(0).
		begin(1).read(1, 100, 1).write(1, 100, 2).
		h
	rep := check(t, h)
	if !rep.Ok() {
		t.Fatalf("truncated log flagged: %+v", rep.Violations)
	}
	if rep.Truncated != 1 {
		t.Fatalf("Truncated = %d, want 1", rep.Truncated)
	}
}

func TestMalformedLogNeverPanics(t *testing.T) {
	// Structurally broken logs: orphan ops, double begins, commits without
	// begins, non-monotone stamps, unknown kinds. Must report, not panic.
	h := History{Ops: []Op{
		{Seq: 5, Core: 0, Kind: OpCommit},
		{Seq: 4, Core: 1, Kind: OpRead, Addr: 9, Val: 1},
		{Seq: 3, Core: 0, Kind: OpBegin},
		{Seq: 3, Core: 0, Kind: OpBegin},
		{Seq: 2, Core: 2, Kind: OpAbort},
		{Seq: 1, Core: 0, Kind: OpKind(200), Addr: 1, Val: 1},
		{Seq: 0, Core: 0, Kind: OpWrite, Addr: 2, Val: 2},
	}}
	rep := Check(h)
	if len(rep.Malformed) == 0 {
		t.Fatal("no malformed notes for a structurally broken log")
	}
}

func TestViolationCap(t *testing.T) {
	// Many independent phantom reads: witnesses capped, count exact. The
	// initial values are registered so the reads cannot be explained away
	// as inferred version-0 values.
	b := newHB()
	for i := 0; i < 20; i++ {
		b.init(memory.Addr(100+i), 0).begin(0).read(0, memory.Addr(100+i), 42).commit(0)
	}
	rep := CheckCapped(b.h, 3)
	if len(rep.Violations) != 3 {
		t.Fatalf("materialized %d violations, want 3", len(rep.Violations))
	}
	if rep.TotalViolations != 20 {
		t.Fatalf("TotalViolations = %d, want 20", rep.TotalViolations)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Begin(0, 0)
	r.Read(0, 0, 1, 2)
	r.Write(0, 0, 1, 2)
	r.Commit(0, 0)
	r.Abort(0, 0)
	r.NTRead(0, 0, 1, 2)
	r.NTWrite(0, 0, 1, 2)
	r.SetInitial(1, 2)
	if r.Enabled() || r.Len() != 0 {
		t.Fatal("nil recorder not inert")
	}
	h := r.History()
	if len(h.Ops) != 0 {
		t.Fatal("nil recorder produced ops")
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	r := NewRecorder()
	r.SetInitial(100, 0)
	r.Begin(0, 10)
	r.Read(0, 11, 100, 0)
	r.Write(0, 12, 100, 1)
	r.Commit(0, 13)
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	h := r.History()
	rep := Check(h)
	if !rep.Ok() {
		t.Fatalf("recorded history flagged: %+v", rep.Violations)
	}
	// Seq stamps must be strictly increasing.
	for i := 1; i < len(h.Ops); i++ {
		if h.Ops[i].Seq <= h.Ops[i-1].Seq {
			t.Fatalf("non-monotone recorder stamps at %d", i)
		}
	}
	// The frozen history must not alias the recorder.
	r.Begin(1, 20)
	if len(h.Ops) != 4 {
		t.Fatal("History aliases recorder storage")
	}
}

func TestReportJSONComposable(t *testing.T) {
	// Reports must serialize cleanly for composition with the profiler's
	// artifact output.
	h := newHB().init(100, 0).
		begin(0).read(0, 100, 0).write(0, 100, 1).commit(0).
		begin(1).read(1, 100, 0).write(1, 100, 9).commit(1).
		h
	rep := Check(h)
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.TotalViolations != rep.TotalViolations {
		t.Fatalf("round-trip lost violations: %d != %d", back.TotalViolations, rep.TotalViolations)
	}
}

// TestRecordAllocatesOnlyChunks: the log grows a chunk at a time and never
// re-copies what it holds, so recording allocates one chunk per chunkOps
// ops beyond what NewRecorder allocates. The 60 MB the runs log would
// trigger collections, and a collection allocates on its own (mark worker
// goroutines at the first one, the unique package's map cleanup after each
// one), so the measurement runs with the collector off.
func TestRecordAllocatesOnlyChunks(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const chunks = 16
	var r *Recorder
	base := testing.AllocsPerRun(20, func() { r = NewRecorder() })
	allocs := testing.AllocsPerRun(20, func() {
		r = NewRecorder()
		for i := 0; i < chunks*chunkOps; i++ {
			r.Write(i%16, 0, 8, uint64(i))
		}
	})
	if allocs > base+chunks {
		t.Errorf("recording %d ops: %v allocs, want NewRecorder's %v + %d chunks", chunks*chunkOps, allocs, base, chunks)
	}
	if r.Len() != chunks*chunkOps {
		t.Fatalf("Len = %d, want %d", r.Len(), chunks*chunkOps)
	}
	h := r.History()
	for i := range h.Ops {
		if h.Ops[i].Seq != uint64(i)+1 || h.Ops[i].Val != uint64(i) {
			t.Fatalf("History op %d = %+v", i, h.Ops[i])
		}
	}
}

// BenchmarkRecord prices logging one operation.
func BenchmarkRecord(b *testing.B) {
	r := NewRecorder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Read(i&15, sim.Time(i), memory.Addr(i&1023), uint64(i))
	}
}
