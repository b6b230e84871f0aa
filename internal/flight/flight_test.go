package flight

import (
	"reflect"
	"testing"

	"flextm/internal/memory"
	"flextm/internal/sim"
	"flextm/internal/telemetry"
)

func TestNilRecorderIsSafeAndFree(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports Enabled")
	}
	r.Rec(0, 1, TxnBegin, -1, 0, 0) // must not panic
	if r.Written() != 0 || r.Overwritten() != 0 {
		t.Fatal("nil recorder reports records")
	}
	if snap := r.Snapshot(); snap != nil {
		t.Fatalf("nil recorder Snapshot = %v, want nil", snap)
	}
	r.Reset() // must not panic

	allocs := testing.AllocsPerRun(1000, func() {
		r.Rec(0, 1, TxnBegin, -1, 0, 0)
	})
	if allocs != 0 {
		t.Fatalf("nil recorder Rec allocates %.1f per op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		r.RecDur(0, 1, CMStall, 1, 0, 0x40, 25)
	})
	if allocs != 0 {
		t.Fatalf("nil recorder RecDur allocates %.1f per op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		Emit(nil, r, 0, 1, CMStall, 1, 0, 0x40, 25)
	})
	if allocs != 0 {
		t.Fatalf("Emit with both sinks nil allocates %.1f per op, want 0", allocs)
	}
}

func TestRecDurCarriesDuration(t *testing.T) {
	r := New(1, 8)
	r.RecDur(0, 100, CMStall, 1, AuxFP, 0x40, 37)
	r.Rec(0, 200, TxnAbort, -1, 0, 0)
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot = %d records, want 2", len(snap))
	}
	if snap[0].Dur != 37 || snap[0].Aux&AuxFP == 0 {
		t.Fatalf("stall record = %+v, want Dur 37 with the FP bit", snap[0])
	}
	if snap[1].Dur != 0 {
		t.Fatalf("plain Rec carries Dur %d, want 0", snap[1].Dur)
	}
}

func TestRecIsAllocationFree(t *testing.T) {
	r := New(2, 64)
	var at sim.Time
	allocs := testing.AllocsPerRun(10000, func() {
		at++
		r.Rec(1, at, CSTSet, 0, 2, memory.LineAddr(at))
	})
	if allocs > 1 {
		t.Fatalf("enabled Rec allocates %.1f per op, want <= 1", allocs)
	}
	if allocs != 0 {
		t.Logf("enabled Rec allocates %.1f per op (budget is 1)", allocs)
	}
	tel := telemetry.New(2)
	for _, c := range []struct {
		name string
		tel  *telemetry.Registry
		fl   *Recorder
	}{{"telemetry only", tel, nil}, {"both sinks", tel, r}} {
		allocs := testing.AllocsPerRun(10000, func() {
			at++
			Emit(c.tel, c.fl, 1, at, CSTSet, 0, 2, memory.LineAddr(at), 0)
			Emit(c.tel, c.fl, 0, at, CMStall, 1, 0, memory.LineAddr(at), 9)
		})
		if allocs != 0 {
			t.Fatalf("Emit with %s allocates %.1f per op, want 0", c.name, allocs)
		}
	}
}

// TestEmitSinksAreIndependent: for every kind, Emit into telemetry alone
// adds exactly the counters the kind mirrors, on the declared core and by
// the declared amount, and nothing else; Emit into a recorder alone writes
// the record RecDur writes.
func TestEmitSinksAreIndependent(t *testing.T) {
	const cores, core, peer, at, aux, line, dur = 4, 1, 2, 100, 5, 0x40, 37
	for k := range NumKinds {
		tel := telemetry.New(cores)
		Emit(tel, nil, core, at, k, peer, aux, line, dur)
		var want [cores][telemetry.NumCounters]uint64
		for _, m := range k.Mirrors() {
			on, n := core, uint64(1)
			if m.OnPeer {
				on = peer
			}
			if m.ByDur {
				n = dur
			}
			want[on][m.Counter] += n
		}
		snap := tel.Snapshot()
		for c := range want {
			if got := snap.Cores[c].Counters; got != want[c] {
				t.Errorf("%s: core %d counters %v, want %v", k, c, got, want[c])
			}
		}

		emitted, direct := New(cores, 8), New(cores, 8)
		Emit(nil, emitted, core, at, k, peer, aux, line, dur)
		direct.RecDur(core, at, k, peer, aux, line, dur)
		if got, want := emitted.Snapshot(), direct.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Emit recorded %+v, RecDur %+v", k, got, want)
		}
	}
}

func TestRingWrapKeepsNewestRecords(t *testing.T) {
	const size = 8
	r := New(1, size)
	for i := 0; i < 20; i++ {
		r.Rec(0, sim.Time(i), TxnBegin, -1, 0, 0)
	}
	if got := r.Written(); got != 20 {
		t.Fatalf("Written = %d, want 20", got)
	}
	if got := r.Overwritten(); got != 20-size {
		t.Fatalf("Overwritten = %d, want %d", got, 20-size)
	}
	snap := r.Snapshot()
	if len(snap) != size {
		t.Fatalf("Snapshot len = %d, want %d", len(snap), size)
	}
	// The survivors must be exactly the newest `size` records, in order.
	for i, rec := range snap {
		want := sim.Time(20 - size + i)
		if rec.At != want {
			t.Fatalf("snap[%d].At = %d, want %d", i, rec.At, want)
		}
	}
}

func TestSnapshotMergesCoresBySeq(t *testing.T) {
	r := New(3, 16)
	// Interleave records across cores; Seq must reconstruct the global order.
	order := []int{2, 0, 1, 1, 0, 2, 0}
	for i, core := range order {
		r.Rec(core, sim.Time(100), TxnBegin, -1, uint8(i), 0)
	}
	snap := r.Snapshot()
	if len(snap) != len(order) {
		t.Fatalf("Snapshot len = %d, want %d", len(snap), len(order))
	}
	for i, rec := range snap {
		if int(rec.Core) != order[i] || rec.Aux != uint8(i) {
			t.Fatalf("snap[%d] = core %d aux %d, want core %d aux %d",
				i, rec.Core, rec.Aux, order[i], i)
		}
		if i > 0 && rec.Seq <= snap[i-1].Seq {
			t.Fatalf("Seq not strictly increasing at %d: %d <= %d", i, rec.Seq, snap[i-1].Seq)
		}
	}
}

func TestSnapshotIsNonDestructive(t *testing.T) {
	r := New(1, 8)
	r.Rec(0, 1, TxnBegin, -1, 0, 0)
	r.Rec(0, 2, TxnCommit, -1, 0, 0)
	first := r.Snapshot()
	second := r.Snapshot()
	if len(first) != 2 || len(second) != 2 {
		t.Fatalf("snapshots = %d/%d records, want 2/2", len(first), len(second))
	}
	// Mutating the snapshot must not corrupt the rings.
	first[0].Kind = TxnAbort
	if got := r.Snapshot()[0].Kind; got != TxnBegin {
		t.Fatalf("ring record changed through snapshot: %v", got)
	}
}

func TestResetClearsButKeepsCapacity(t *testing.T) {
	r := New(2, 4)
	for i := 0; i < 10; i++ {
		r.Rec(i%2, sim.Time(i), TxnAbort, -1, 0, 0)
	}
	r.Reset()
	if r.Written() != 0 || r.Overwritten() != 0 || len(r.Snapshot()) != 0 {
		t.Fatal("Reset did not clear the recorder")
	}
	r.Rec(0, 1, TxnBegin, -1, 0, 0)
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Seq != 1 {
		t.Fatalf("post-Reset record = %+v, want Seq restarted at 1", snap)
	}
}

func TestDefaultPerCore(t *testing.T) {
	r := New(1, 0)
	for i := 0; i < DefaultPerCore+5; i++ {
		r.Rec(0, sim.Time(i), TxnBegin, -1, 0, 0)
	}
	if got := r.Overwritten(); got != 5 {
		t.Fatalf("Overwritten = %d, want 5 (ring capacity should be DefaultPerCore)", got)
	}
}

func TestKindStringsAreStable(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		if s := k.String(); s == "" || s[0] == 'K' {
			t.Fatalf("Kind(%d) has no name: %q", k, s)
		}
	}
	if s := NumKinds.String(); s != "Kind(15)" {
		t.Fatalf("out-of-range Kind String = %q", s)
	}
}

func BenchmarkRec(b *testing.B) {
	r := New(4, DefaultPerCore)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Rec(i&3, sim.Time(i), CSTSet, (i+1)&3, 1, memory.LineAddr(i))
	}
}

func BenchmarkRecNil(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Rec(i&3, sim.Time(i), CSTSet, (i+1)&3, 1, memory.LineAddr(i))
	}
}

func BenchmarkEmit(b *testing.B) {
	tel, r := telemetry.New(4), New(4, DefaultPerCore)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Emit(tel, r, i&3, sim.Time(i), CSTSet, (i+1)&3, 1, memory.LineAddr(i), 0)
	}
}

func BenchmarkEmitNil(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Emit(nil, nil, i&3, sim.Time(i), CSTSet, (i+1)&3, 1, memory.LineAddr(i), 0)
	}
}
