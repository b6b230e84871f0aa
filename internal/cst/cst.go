// Package cst implements FlexTM's Conflict Summary Tables (Section 3.2 of
// the paper).
//
// Unlike Bulk- or LogTM-style systems, FlexTM tracks conflicts on a
// processor-by-processor basis rather than line-by-line: each processor has
// three full-map bit vectors, one bit per other processor:
//
//	R-W — a local read  conflicted with a remote write
//	W-R — a local write conflicted with a remote read
//	W-W — a local write conflicted with a remote write
//
// The tables are first-class, software-readable registers. The lazy Commit()
// routine of Figure 3 copy-and-clears W-R and W-W and aborts exactly the
// transactions named there, which is what lets FlexTM commit and abort with
// purely local operations.
package cst

import (
	"fmt"
	"math/bits"
	"strings"
)

// Kind names one of the three conflict summary tables.
type Kind int

const (
	// RW records local-read / remote-write conflicts.
	RW Kind = iota
	// WR records local-write / remote-read conflicts.
	WR
	// WW records local-write / remote-write conflicts.
	WW
	numKinds
)

// String returns the paper's name for the table.
func (k Kind) String() string {
	switch k {
	case RW:
		return "R-W"
	case WR:
		return "W-R"
	case WW:
		return "W-W"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Vec is one full-map bit vector, one bit per processor. It supports up to
// 64 processors, which covers the paper's 16-way CMP with room to spare.
type Vec uint64

// Set sets the bit for processor p.
func (v *Vec) Set(p int) { *v |= 1 << uint(p) }

// Clear clears the bit for processor p.
func (v *Vec) Clear(p int) { *v &^= 1 << uint(p) }

// Has reports whether processor p's bit is set.
func (v Vec) Has(p int) bool { return v&(1<<uint(p)) != 0 }

// Empty reports whether no bits are set.
func (v Vec) Empty() bool { return v == 0 }

// Count returns the number of set bits (the number of conflicting
// processors; the metric in Figure 4's conflicting-transactions table).
func (v Vec) Count() int { return bits.OnesCount64(uint64(v)) }

// CopyAndClear atomically returns the vector's value and zeroes it — the
// paper's clruw-style "copy and clear" instruction used in line 1 of the
// Commit() routine. (In the simulator one simulated thread runs at a time,
// so plain code is atomic.)
func (v *Vec) CopyAndClear() Vec {
	old := *v
	*v = 0
	return old
}

// Table is the full per-processor conflict state: the three CST registers.
type Table struct {
	vec [numKinds]Vec
}

// Get returns a pointer to the register of the given kind.
func (t *Table) Get(k Kind) *Vec { return &t.vec[k] }

// Set sets processor p's bit in the register of kind k.
func (t *Table) Set(k Kind, p int) { t.vec[k].Set(p) }

// Has reports whether processor p's bit is set in the register of kind k.
func (t *Table) Has(k Kind, p int) bool { return t.vec[k].Has(p) }

// ClearAll zeroes all three registers (flash clear at commit/abort).
func (t *Table) ClearAll() {
	for i := range t.vec {
		t.vec[i] = 0
	}
}

// Enemies returns W-R | W-W: the processors a committing transaction must
// abort to serialize (Figure 3, line 2).
func (t *Table) Enemies() Vec { return t.vec[WR] | t.vec[WW] }

// ConflictDegree returns the number of distinct processors in W-R | W-W,
// the statistic reported in the table at the end of Figure 4.
func (t *Table) ConflictDegree() int { return t.Enemies().Count() }

// Snapshot returns a copy of the three registers (for context-switch save).
func (t *Table) Snapshot() Table { return *t }

// Restore overwrites the registers from a snapshot.
func (t *Table) Restore(s Table) { *t = s }

// String formats the table for diagnostics: each register's processors
// in ascending order, as in "R-W=[] W-R=[1 5] W-W=[2]".
func (t *Table) String() string {
	var b strings.Builder
	for k := Kind(0); k < numKinds; k++ {
		if k > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=[", k)
		sep := ""
		for w := uint64(t.vec[k]); w != 0; w &= w - 1 {
			fmt.Fprintf(&b, "%s%d", sep, bits.TrailingZeros64(w))
			sep = " "
		}
		b.WriteByte(']')
	}
	return b.String()
}
