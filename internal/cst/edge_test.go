package cst

import "testing"

// TestVecEdgeOps pins the bit-level edge semantics the protocol leans on:
// Set and Clear are idempotent, Clear of an unset bit is a no-op, and the
// boundary processors (0 and 63) behave like the middle ones. The W-R scrub
// of Section 3.6 clears bits on remote tables without knowing whether the
// remote already copy-and-cleared them, so redundant clears must be harmless.
func TestVecEdgeOps(t *testing.T) {
	cases := []struct {
		name  string
		build func(v *Vec)
		want  []int
	}{
		{"double set is single set", func(v *Vec) { v.Set(5); v.Set(5) }, []int{5}},
		{"clear unset is no-op", func(v *Vec) { v.Set(5); v.Clear(9) }, []int{5}},
		{"double clear", func(v *Vec) { v.Set(5); v.Clear(5); v.Clear(5) }, nil},
		{"set after clear resurrects", func(v *Vec) { v.Set(5); v.Clear(5); v.Set(5) }, []int{5}},
		{"boundary proc 0", func(v *Vec) { v.Set(0); v.Set(0); v.Clear(63) }, []int{0}},
		{"boundary proc 63", func(v *Vec) { v.Set(63); v.Clear(0); v.Set(63) }, []int{63}},
		{"interleaved", func(v *Vec) {
			v.Set(1)
			v.Set(2)
			v.Clear(1)
			v.Set(3)
			v.Clear(1) // scrub again: already gone
		}, []int{2, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var v Vec
			tc.build(&v)
			if v.Count() != len(tc.want) {
				t.Fatalf("Count = %d, want %d (procs %v)", v.Count(), len(tc.want), procs(v))
			}
			for _, p := range tc.want {
				if !v.Has(p) {
					t.Fatalf("missing proc %d (procs %v)", p, procs(v))
				}
			}
		})
	}
}

// TestCopyAndClearEdge covers the Figure 3 line-1 primitive's corner cases:
// copy-and-clear of an empty register yields empty (the eager fast path),
// and a second copy-and-clear with no intervening sets yields empty — the
// instruction must not latch stale state.
func TestCopyAndClearEdge(t *testing.T) {
	var v Vec
	if old := v.CopyAndClear(); !old.Empty() {
		t.Fatalf("CopyAndClear of empty = %v", procs(old))
	}
	v.Set(4)
	first := v.CopyAndClear()
	if !first.Has(4) || first.Count() != 1 {
		t.Fatalf("first CopyAndClear = %v", procs(first))
	}
	if second := v.CopyAndClear(); !second.Empty() {
		t.Fatalf("second CopyAndClear = %v, want empty", procs(second))
	}
}

// TestScrubVsCopyAndClearOrdering models the race between a committing
// reader scrubbing its bit from a writer's W-R (Section 3.6) and the writer
// concurrently starting its own Commit() (Figure 3 line 1). Whichever order
// the simulator serializes them in, the register must end empty and the
// writer's local snapshot decides whether the reader gets an (absorbable)
// abort — the scrub must never resurrect a bit or corrupt neighbors.
func TestScrubVsCopyAndClearOrdering(t *testing.T) {
	const reader, other = 2, 7
	t.Run("scrub first", func(t *testing.T) {
		var wr Vec
		wr.Set(reader)
		wr.Set(other)
		wr.Clear(reader) // reader commits, scrubs itself before writer's line 1
		snap := wr.CopyAndClear()
		if snap.Has(reader) {
			t.Fatal("scrubbed reader still in writer's commit snapshot")
		}
		if !snap.Has(other) || snap.Count() != 1 {
			t.Fatalf("snapshot = %v, want [%d]", procs(snap), other)
		}
		if !wr.Empty() {
			t.Fatalf("register not empty after copy-and-clear: %v", procs(wr))
		}
	})
	t.Run("copy-and-clear first", func(t *testing.T) {
		var wr Vec
		wr.Set(reader)
		wr.Set(other)
		snap := wr.CopyAndClear() // writer's line 1 wins the race
		if !snap.Has(reader) {
			t.Fatal("pre-scrub snapshot must still name the reader")
		}
		wr.Clear(reader) // late scrub hits an already-clear register: no-op
		if !wr.Empty() {
			t.Fatalf("late scrub left bits: %v", procs(wr))
		}
	})
}

// TestTableKindIsolation checks that operations on one register never bleed
// into the others: the three CSTs are architecturally separate registers and
// Enemies() must see exactly W-R|W-W regardless of R-W churn.
func TestTableKindIsolation(t *testing.T) {
	cases := []struct {
		name    string
		ops     func(tb *Table)
		enemies []int
		rw      []int
	}{
		{"rw only", func(tb *Table) { tb.Set(RW, 1); tb.Set(RW, 1) }, nil, []int{1}},
		{"scrub one kind", func(tb *Table) {
			tb.Set(WR, 3)
			tb.Set(WW, 3)
			tb.Set(RW, 3)
			tb.Get(WR).Clear(3) // scrub W-R; W-W and R-W must survive
		}, []int{3}, []int{3}},
		{"copy-and-clear one kind", func(tb *Table) {
			tb.Set(WR, 1)
			tb.Set(WW, 2)
			tb.Get(WW).CopyAndClear()
		}, []int{1}, nil},
		{"clear all then repopulate", func(tb *Table) {
			tb.Set(WR, 1)
			tb.ClearAll()
			tb.ClearAll() // flash clear is idempotent too
			tb.Set(WW, 4)
		}, []int{4}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var tb Table
			tc.ops(&tb)
			e := tb.Enemies()
			if e.Count() != len(tc.enemies) {
				t.Fatalf("Enemies = %v, want %v", procs(e), tc.enemies)
			}
			for _, p := range tc.enemies {
				if !e.Has(p) {
					t.Fatalf("Enemies = %v, want %v", procs(e), tc.enemies)
				}
			}
			got := tb.Get(RW)
			if got.Count() != len(tc.rw) {
				t.Fatalf("R-W = %v, want %v", procs(*got), tc.rw)
			}
			for _, p := range tc.rw {
				if !got.Has(p) {
					t.Fatalf("R-W = %v, want %v", procs(*got), tc.rw)
				}
			}
		})
	}
}
