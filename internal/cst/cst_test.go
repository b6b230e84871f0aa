package cst

import (
	"testing"
	"testing/quick"
)

func TestVecSetClearHas(t *testing.T) {
	var v Vec
	if !v.Empty() {
		t.Fatal("zero Vec not empty")
	}
	v.Set(3)
	v.Set(15)
	if !v.Has(3) || !v.Has(15) || v.Has(4) {
		t.Fatal("Set/Has mismatch")
	}
	if v.Count() != 2 {
		t.Fatalf("Count = %d, want 2", v.Count())
	}
	v.Clear(3)
	if v.Has(3) || !v.Has(15) {
		t.Fatal("Clear removed wrong bit")
	}
}

func TestTableStringListsProcsInOrder(t *testing.T) {
	var tb Table
	for _, p := range []int{9, 1, 63, 0} {
		tb.Set(RW, p)
	}
	tb.Set(WW, 5)
	if got, want := tb.String(), "R-W=[0 1 9 63] W-R=[] W-W=[5]"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

// procs lists v's processors in ascending order, for failure messages.
func procs(v Vec) []int {
	var ps []int
	for p := 0; p < 64; p++ {
		if v.Has(p) {
			ps = append(ps, p)
		}
	}
	return ps
}

func TestCopyAndClear(t *testing.T) {
	var v Vec
	v.Set(2)
	v.Set(7)
	old := v.CopyAndClear()
	if !old.Has(2) || !old.Has(7) || old.Count() != 2 {
		t.Fatal("CopyAndClear returned wrong snapshot")
	}
	if !v.Empty() {
		t.Fatal("CopyAndClear left bits behind")
	}
}

func TestVecRoundTrip(t *testing.T) {
	f := func(procs []uint8) bool {
		var v Vec
		set := map[int]bool{}
		for _, p := range procs {
			pp := int(p % 64)
			v.Set(pp)
			set[pp] = true
		}
		if v.Count() != len(set) {
			return false
		}
		for p := 0; p < 64; p++ {
			if v.Has(p) != set[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableEnemies(t *testing.T) {
	var tb Table
	tb.Set(WR, 1)
	tb.Set(WW, 2)
	tb.Set(RW, 3) // R-W does not force aborts at commit
	e := tb.Enemies()
	if !e.Has(1) || !e.Has(2) || e.Has(3) {
		t.Fatalf("Enemies = %v", procs(e))
	}
	if tb.ConflictDegree() != 2 {
		t.Fatalf("ConflictDegree = %d, want 2", tb.ConflictDegree())
	}
}

func TestTableClearAll(t *testing.T) {
	var tb Table
	tb.Set(RW, 0)
	tb.Set(WR, 1)
	tb.Set(WW, 2)
	tb.ClearAll()
	for k := Kind(0); k < numKinds; k++ {
		if !tb.Get(k).Empty() {
			t.Fatalf("%v not cleared", k)
		}
	}
}

func TestSnapshotRestore(t *testing.T) {
	var tb Table
	tb.Set(WW, 5)
	snap := tb.Snapshot()
	tb.ClearAll()
	tb.Set(RW, 1)
	tb.Restore(snap)
	if !tb.Has(WW, 5) || tb.Has(RW, 1) {
		t.Fatal("Restore did not reinstate snapshot exactly")
	}
}

func TestKindString(t *testing.T) {
	if RW.String() != "R-W" || WR.String() != "W-R" || WW.String() != "W-W" {
		t.Fatal("Kind names do not match the paper")
	}
}

func TestTableString(t *testing.T) {
	var tb Table
	tb.Set(RW, 1)
	if s := tb.String(); s == "" {
		t.Fatal("String empty")
	}
}
