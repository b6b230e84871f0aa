package telemetry

import "testing"

// The observatory pump diffs successive snapshots every interval, so Diff
// must stay sane under the degenerate inputs a live system can hand it:
// registry resets between samples, mismatched core counts after a re-bind,
// and values near the uint64 wraparound boundary.

func TestDiffOrdinary(t *testing.T) {
	r := New(2)
	r.Add(0, CtrTxnCommits, 10)
	prev := r.Snapshot()
	r.Add(0, CtrTxnCommits, 7)
	r.Add(1, CtrTxnAborts, 3)
	d := r.Snapshot().Diff(prev)
	if got := d.Total(CtrTxnCommits); got != 7 {
		t.Fatalf("commit delta = %d, want 7", got)
	}
	if got := d.Total(CtrTxnAborts); got != 3 {
		t.Fatalf("abort delta = %d, want 3", got)
	}
}

func TestDiffClampsOnCounterReset(t *testing.T) {
	// A Reset between samples makes the current value smaller than the
	// previous one. The delta must clamp to zero, not underflow to ~2^64.
	r := New(1)
	r.Add(0, CtrTxnCommits, 100)
	prev := r.Snapshot()
	r.Reset()
	r.Add(0, CtrTxnCommits, 5)
	d := r.Snapshot().Diff(prev)
	if got := d.Total(CtrTxnCommits); got != 0 {
		t.Fatalf("post-reset delta = %d, want clamp to 0", got)
	}
}

func TestDiffNearWraparound(t *testing.T) {
	// Explicit boundary values: a huge previous count against a small
	// current one (reset-like) and max-uint64 growth both stay in range.
	var prev, cur Snapshot
	prev.Cores = make([]CoreSnapshot, 1)
	cur.Cores = make([]CoreSnapshot, 1)
	prev.Cores[0].Counters[CtrProbes] = ^uint64(0) // 2^64-1
	cur.Cores[0].Counters[CtrProbes] = 1
	if got := cur.Diff(prev).Total(CtrProbes); got != 0 {
		t.Fatalf("wrapped counter delta = %d, want clamp to 0", got)
	}
	prev.Cores[0].Counters[CtrProbes] = 1
	cur.Cores[0].Counters[CtrProbes] = ^uint64(0)
	if got := cur.Diff(prev).Total(CtrProbes); got != ^uint64(0)-1 {
		t.Fatalf("max growth delta = %d, want 2^64-2", got)
	}
}

func TestDiffClampsHistograms(t *testing.T) {
	r := New(1)
	r.Observe(0, HistCommitCycles, 100)
	r.Observe(0, HistCommitCycles, 5000)
	prev := r.Snapshot()
	r.Reset()
	r.Observe(0, HistCommitCycles, 100)
	d := r.Snapshot().Diff(prev)
	h := d.Hist(HistCommitCycles)
	if h.Count != 0 || h.Sum != 0 {
		t.Fatalf("post-reset hist delta count=%d sum=%d, want clamp to 0", h.Count, h.Sum)
	}
	for i, b := range h.Buckets {
		if b != 0 {
			t.Fatalf("bucket %d = %d after clamped diff", i, b)
		}
	}
	// And a normal hist diff yields exactly the new observations.
	prev2 := r.Snapshot()
	r.Observe(0, HistCommitCycles, 200)
	h2 := r.Snapshot().Diff(prev2).Hist(HistCommitCycles)
	if h2.Count != 1 || h2.Sum != 200 {
		t.Fatalf("hist delta count=%d sum=%d, want 1/200", h2.Count, h2.Sum)
	}
}

func TestDiffMismatchedCoreCounts(t *testing.T) {
	// A re-bind can pair snapshots from machines of different widths; the
	// extra cores pass through as absolute values, never a panic.
	big := New(4)
	big.Add(3, CtrTxnCommits, 9)
	small := New(2)
	small.Add(0, CtrTxnCommits, 2)
	d := big.Snapshot().Diff(small.Snapshot())
	if got := d.Total(CtrTxnCommits); got != 9 {
		t.Fatalf("mismatched-width delta = %d, want 9 (extra core passes through)", got)
	}
	// The narrow direction just drops the prev cores that no longer exist.
	d2 := small.Snapshot().Diff(big.Snapshot())
	if got := d2.Total(CtrTxnCommits); got != 2 {
		t.Fatalf("narrowing delta = %d, want 2", got)
	}
}

func TestDiffAgainstEmptyPrevIsIdentity(t *testing.T) {
	r := New(2)
	r.Add(1, CtrCSTSet, 42)
	s := r.Snapshot()
	d := s.Diff(Snapshot{})
	if got := d.Total(CtrCSTSet); got != 42 {
		t.Fatalf("identity diff = %d, want 42", got)
	}
	if d.Empty() != s.Empty() {
		t.Fatal("identity diff changed emptiness")
	}
}
