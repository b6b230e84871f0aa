package flight

import "testing"

// TestRestoreRoundTripsSnapshot: with no wrap-around, Restore is lossless —
// the restored recorder's Snapshot is record-for-record identical and it
// reports no loss.
func TestRestoreRoundTripsSnapshot(t *testing.T) {
	r := New(2, 16)
	for i := 0; i < 6; i++ {
		r.Rec(i%2, 0, TxnBegin, -1, 0, 0)
	}
	snap := r.Snapshot()
	got := Restore(2, snap)
	if got.Overwritten() != 0 {
		t.Fatalf("lossless restore reports Overwritten = %d", got.Overwritten())
	}
	back := got.Snapshot()
	if len(back) != len(snap) {
		t.Fatalf("restored snapshot = %d records, want %d", len(back), len(snap))
	}
	for i := range snap {
		if back[i] != snap[i] {
			t.Fatalf("record %d: restored %+v != original %+v", i, back[i], snap[i])
		}
	}
	if _, gap := got.SnapshotSince(0); gap {
		t.Fatal("lossless restore flags a gap")
	}
}

// TestRestoreAfterWrapSurfacesGap is the regression test for the silent-drop
// bug: wrap a live recorder, restore its snapshot, and the restored recorder
// must report the same loss the live one did — through Overwritten AND
// through SnapshotSince's gap watermarks, which Restore previously left at
// zero so stale cursors looked clean.
func TestRestoreAfterWrapSurfacesGap(t *testing.T) {
	r := New(2, 4)
	for i := 0; i < 10; i++ {
		r.Rec(i%2, 0, TxnAbort, -1, 0, 0)
	}
	lost := r.Overwritten()
	if lost == 0 {
		t.Fatal("fixture never wrapped")
	}
	snap := r.Snapshot()
	got := Restore(2, snap)

	if got.Overwritten() != lost {
		t.Fatalf("restored Overwritten = %d, live recorder reported %d", got.Overwritten(), lost)
	}

	liveRecs, liveGap := r.SnapshotSince(0)
	restRecs, restGap := got.SnapshotSince(0)
	if !liveGap || !restGap {
		t.Fatalf("stale cursor 0: live gap=%v restored gap=%v, want both true", liveGap, restGap)
	}
	if len(liveRecs) != len(restRecs) {
		t.Fatalf("since 0: live %d records, restored %d", len(liveRecs), len(restRecs))
	}

	// Find the highest missing Seq: the watermark both recorders must agree
	// on. Seqs are contiguous from 1, so every absent one is a lost record.
	seen := make(map[uint64]bool, len(snap))
	var maxSeq uint64
	for _, rec := range snap {
		seen[rec.Seq] = true
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
	}
	var highestMissing uint64
	for s := maxSeq; s >= 1; s-- {
		if !seen[s] {
			highestMissing = s
			break
		}
	}
	if highestMissing == 0 {
		t.Fatal("fixture has no holes despite wrap-around")
	}
	// A cursor strictly below the highest missing Seq has lost something;
	// a cursor at or past it is clean. Both recorders must say so.
	if _, gap := got.SnapshotSince(highestMissing - 1); !gap {
		t.Fatalf("restored cursor %d (below highest missing %d) not flagged", highestMissing-1, highestMissing)
	}
	if _, gap := r.SnapshotSince(highestMissing - 1); !gap {
		t.Fatalf("live cursor %d (below highest missing %d) not flagged", highestMissing-1, highestMissing)
	}
	if _, gap := got.SnapshotSince(highestMissing); gap {
		t.Fatalf("restored recorder flags fresh cursor %d", highestMissing)
	}
	if _, gap := r.SnapshotSince(highestMissing); gap {
		t.Fatalf("live recorder flags fresh cursor %d", highestMissing)
	}
}

// TestRestoreGapAgreesWithLiveAcrossCursors sweeps every cursor value and
// checks the restored recorder's gap verdict matches the live recorder's.
// Cores wrap at different depths so the per-core watermarks genuinely
// differ on the live side.
func TestRestoreGapAgreesWithLiveAcrossCursors(t *testing.T) {
	r := New(2, 4)
	// Core 0 wraps hard, core 1 not at all.
	for i := 0; i < 9; i++ {
		r.Rec(0, 0, TxnCommit, -1, 0, 0)
	}
	r.Rec(1, 0, TxnCommit, -1, 0, 0)
	snap := r.Snapshot()
	got := Restore(2, snap)
	if got.Overwritten() != r.Overwritten() {
		t.Fatalf("Overwritten: restored %d, live %d", got.Overwritten(), r.Overwritten())
	}
	for cursor := uint64(0); cursor <= 10; cursor++ {
		_, liveGap := r.SnapshotSince(cursor)
		_, restGap := got.SnapshotSince(cursor)
		if liveGap != restGap {
			t.Fatalf("cursor %d: live gap=%v, restored gap=%v", cursor, liveGap, restGap)
		}
	}
}

// TestRestoreResetClearsRestoredLoss: Reset on a restored recorder discards
// the inherited loss along with the records.
func TestRestoreResetClearsRestoredLoss(t *testing.T) {
	r := New(1, 2)
	for i := 0; i < 5; i++ {
		r.Rec(0, 0, TxnAbort, -1, 0, 0)
	}
	got := Restore(1, r.Snapshot())
	if got.Overwritten() == 0 {
		t.Fatal("fixture did not inherit loss")
	}
	got.Reset()
	if got.Overwritten() != 0 {
		t.Fatalf("post-Reset Overwritten = %d, want 0", got.Overwritten())
	}
	if _, gap := got.SnapshotSince(0); gap {
		t.Fatal("post-Reset gap still flagged")
	}
}

// TestRestoreFindsHighestMissingSeqInAnyOrder: the highest missing Seq —
// looked up only when records are missing — does not depend on the order
// the records arrive in, and records of out-of-range cores do not fill a
// hole.
func TestRestoreFindsHighestMissingSeqInAnyOrder(t *testing.T) {
	recs := []Rec{
		{Seq: 9, Core: 1}, {Seq: 2, Core: 0}, {Seq: 7, Core: 0},
		{Seq: 8, Core: 0}, {Seq: 6, Core: 5}, {Seq: 9, Core: 1},
	}
	got := Restore(2, recs)
	// Present on valid cores: 2, 7, 8, 9 (twice). Seq 6 names core 5.
	for cursor := uint64(0); cursor <= 9; cursor++ {
		_, gap := got.SnapshotSince(cursor)
		if want := cursor < 6; gap != want {
			t.Fatalf("cursor %d: gap=%v, want %v", cursor, gap, want)
		}
	}
	if got.Overwritten() != 9-5 {
		t.Fatalf("Overwritten = %d, want %d", got.Overwritten(), 9-5)
	}
	if lost := highestMissingSeq(nil, 1, 3); lost != 3 {
		t.Fatalf("no records up to Seq 3: highest missing = %d, want 3", lost)
	}
}
