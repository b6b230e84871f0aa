package cache

import (
	"fmt"
	"testing"
	"testing/quick"

	"flextm/internal/memory"
)

func small() *Cache { return New(Config{Sets: 4, Ways: 2, VictimSize: 2}) }

func TestInsertLookup(t *testing.T) {
	c := small()
	c.Insert(Line{Tag: 17, State: Shared})
	ln := c.Lookup(17)
	if ln == nil || ln.State != Shared {
		t.Fatal("inserted line not found")
	}
	if c.Lookup(18) != nil {
		t.Fatal("phantom hit")
	}
}

func TestInsertResidentPanics(t *testing.T) {
	c := small()
	c.Insert(Line{Tag: 1, State: Shared})
	defer func() {
		if recover() == nil {
			t.Fatal("double insert did not panic")
		}
	}()
	c.Insert(Line{Tag: 1, State: Exclusive})
}

func TestLRUEvictionGoesToVictimBuffer(t *testing.T) {
	c := small()
	// Lines 0, 4, 8 all map to set 0 (4 sets).
	c.Insert(Line{Tag: 0, State: Shared})
	c.Insert(Line{Tag: 4, State: Shared})
	c.Lookup(0) // make 4 the LRU
	if spilled := c.Insert(Line{Tag: 8, State: Shared}); spilled != nil {
		t.Fatal("victim buffer should have absorbed the eviction")
	}
	// 4 must still be findable (victim buffer hit).
	if c.Lookup(4) == nil {
		t.Fatal("evicted line lost; victim buffer not searched")
	}
}

func TestVictimBufferOverflowSpills(t *testing.T) {
	c := small()
	var spilled []Victimized
	// Fill set 0 and overflow the 2-entry victim buffer.
	for i := 0; i < 6; i++ {
		spilled = append(spilled, c.Insert(Line{Tag: memory.LineAddr(i * 4), State: TMI})...)
	}
	if len(spilled) != 2 {
		t.Fatalf("spilled %d lines, want 2", len(spilled))
	}
	for _, v := range spilled {
		if v.Line.State != TMI {
			t.Fatalf("spilled line in state %v", v.Line.State)
		}
	}
}

func TestUnboundedVictimBufferNeverSpills(t *testing.T) {
	c := New(Config{Sets: 2, Ways: 1, VictimSize: -1})
	for i := 0; i < 100; i++ {
		if sp := c.Insert(Line{Tag: memory.LineAddr(i * 2), State: TMI}); sp != nil {
			t.Fatal("unbounded victim buffer spilled")
		}
	}
	// Everything remains findable.
	for i := 0; i < 100; i++ {
		if c.Lookup(memory.LineAddr(i*2)) == nil {
			t.Fatalf("line %d lost", i*2)
		}
	}
}

func TestZeroVictimBufferSpillsImmediately(t *testing.T) {
	c := New(Config{Sets: 1, Ways: 1, VictimSize: 0})
	c.Insert(Line{Tag: 1, State: Modified})
	sp := c.Insert(Line{Tag: 2, State: Shared})
	if len(sp) != 1 || sp[0].Line.Tag != 1 {
		t.Fatalf("spill = %+v, want line 1", sp)
	}
}

func TestFlashCommit(t *testing.T) {
	c := small()
	c.Insert(Line{Tag: 1, State: TMI, Data: memory.LineData{42}})
	c.Insert(Line{Tag: 2, State: TI})
	c.Insert(Line{Tag: 3, State: Shared})
	if n := c.FlashCommit(); n != 1 {
		t.Fatalf("committed %d lines, want 1", n)
	}
	if ln := c.Lookup(1); ln == nil || ln.State != Modified || ln.Data[0] != 42 {
		t.Fatal("TMI line did not become M with data intact")
	}
	if c.Lookup(2) != nil {
		t.Fatal("TI line survived commit")
	}
	if ln := c.Lookup(3); ln == nil || ln.State != Shared {
		t.Fatal("S line disturbed by flash commit")
	}
}

func TestFlashAbort(t *testing.T) {
	c := small()
	c.Insert(Line{Tag: 1, State: TMI})
	c.Insert(Line{Tag: 2, State: TI})
	c.Insert(Line{Tag: 3, State: Modified, Data: memory.LineData{7}})
	if n := c.FlashAbort(); n != 2 {
		t.Fatalf("FlashAbort dropped %d, want 2", n)
	}
	if c.Lookup(1) != nil || c.Lookup(2) != nil {
		t.Fatal("speculative lines survived abort")
	}
	if ln := c.Lookup(3); ln == nil || ln.State != Modified || ln.Data[0] != 7 {
		t.Fatal("non-speculative M line lost on abort")
	}
}

func TestFlashOpsReachVictimBuffer(t *testing.T) {
	c := New(Config{Sets: 1, Ways: 1, VictimSize: 4})
	c.Insert(Line{Tag: 1, State: TMI})
	c.Insert(Line{Tag: 2, State: Shared}) // pushes 1 into the victim buffer
	if c.Lookup(1) == nil {
		t.Fatal("line 1 should be in victim buffer")
	}
	if n := c.FlashAbort(); n != 1 {
		t.Fatalf("FlashAbort dropped %d, want 1 (victim buffer line)", n)
	}
	if c.Lookup(1) != nil {
		t.Fatal("victim-buffer TMI line survived abort")
	}
}

func TestTMILines(t *testing.T) {
	c := small()
	c.Insert(Line{Tag: 1, State: TMI})
	c.Insert(Line{Tag: 5, State: TMI})
	c.Insert(Line{Tag: 2, State: Modified})
	got := c.TMILines()
	if len(got) != 2 {
		t.Fatalf("TMILines = %v, want 2 entries", got)
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Insert(Line{Tag: 9, State: Modified, Data: memory.LineData{1, 2}})
	old, ok := c.Invalidate(9)
	if !ok || old.State != Modified || old.Data[1] != 2 {
		t.Fatal("Invalidate did not return prior contents")
	}
	if c.Lookup(9) != nil {
		t.Fatal("line still resident after Invalidate")
	}
	if _, ok := c.Invalidate(9); ok {
		t.Fatal("Invalidate of absent line reported ok")
	}
}

func TestResidentCount(t *testing.T) {
	c := small()
	if c.Resident() != 0 {
		t.Fatal("fresh cache not empty")
	}
	c.Insert(Line{Tag: 1, State: Shared})
	c.Insert(Line{Tag: 2, State: Exclusive})
	if c.Resident() != 2 {
		t.Fatalf("Resident = %d, want 2", c.Resident())
	}
}

func TestStateStringAndPredicates(t *testing.T) {
	if Modified.String() != "M" || TMI.String() != "TMI" || TI.String() != "TI" {
		t.Fatal("state names wrong")
	}
	if !TMI.Speculative() || !TI.Speculative() || Modified.Speculative() {
		t.Fatal("Speculative predicate wrong")
	}
	if Invalid.Valid() || !Shared.Valid() {
		t.Fatal("Valid predicate wrong")
	}
}

func TestCacheNeverLosesTrackedLines(t *testing.T) {
	// Property: with an unbounded victim buffer, every inserted line is
	// either resident or was explicitly invalidated.
	f := func(tags []uint16) bool {
		c := New(Config{Sets: 8, Ways: 2, VictimSize: -1})
		inserted := map[memory.LineAddr]bool{}
		for _, tg := range tags {
			l := memory.LineAddr(tg % 512)
			if c.Lookup(l) == nil {
				c.Insert(Line{Tag: l, State: Shared})
				inserted[l] = true
			}
		}
		for l := range inserted {
			if c.Lookup(l) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTagCacheHitMissEvict(t *testing.T) {
	tc := NewTagCache(2, 2)
	if hit, _, _ := tc.Touch(0); hit {
		t.Fatal("cold miss reported as hit")
	}
	if hit, _, _ := tc.Touch(0); !hit {
		t.Fatal("warm access reported as miss")
	}
	tc.Touch(2) // set 0 now has {0, 2}
	tc.Touch(0) // make 2 LRU
	_, ev, has := tc.Touch(4)
	if !has || ev != 2 {
		t.Fatalf("evicted %v (has=%v), want 2", ev, has)
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{{Sets: 0, Ways: 1}, {Sets: 3, Ways: 1}, {Sets: 4, Ways: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestUnboundedTMIVictimKeepsSpeculativeOnly(t *testing.T) {
	c := New(Config{Sets: 1, Ways: 1, VictimSize: 1, UnboundedTMIVictim: true})
	var spilled []Victimized
	// Alternate TMI and Shared lines through the single set.
	for i := 0; i < 10; i++ {
		st := TMI
		if i%2 == 1 {
			st = Shared
		}
		spilled = append(spilled, c.Insert(Line{Tag: memory.LineAddr(i), State: st})...)
	}
	for _, v := range spilled {
		if v.Line.State == TMI {
			t.Fatalf("TMI line %d spilled despite unbounded TMI victim buffer", v.Line.Tag)
		}
	}
	// All TMI lines must still be resident.
	for i := 0; i < 9; i += 2 {
		ln := c.Lookup(memory.LineAddr(i))
		if i == 8 {
			continue // line 8 is in the set itself
		}
		if ln == nil || ln.State != TMI {
			t.Fatalf("TMI line %d lost", i)
		}
	}
}

func TestResidentDoesNotCompactVictimBuffer(t *testing.T) {
	// Invalidated victim entries keep their slot until the next flash walk,
	// so they count against VictimSize. Counting resident lines must not
	// free those slots: whether Insert spills live TMI line 0 may not
	// depend on whether Resident was called.
	run := func(count bool) []Victimized {
		c := small()
		for _, l := range []memory.LineAddr{0, 4, 8, 12} {
			c.Insert(Line{Tag: l, State: TMI})
		}
		c.Invalidate(4) // victim buffer: [0, 4 (invalid)]
		if count {
			if n := c.Resident(); n != 3 {
				t.Fatalf("Resident = %d, want 3", n)
			}
		}
		return c.Insert(Line{Tag: 16, State: TMI})
	}
	want := run(false)
	if len(want) != 1 || want[0].Line.Tag != 0 || want[0].Line.State != TMI {
		t.Fatalf("spill = %+v, want live TMI line 0", want)
	}
	if got := run(true); len(got) != 1 || got[0] != want[0] {
		t.Fatalf("after Resident, spill = %+v, want %+v", got, want)
	}
}

func TestFlashDropReportsInvalidatedLines(t *testing.T) {
	// OnFlashDrop must name exactly the valid lines a flash walk turns
	// Invalid, victim buffer included: TI on commit, TMI and TI on abort.
	c := small()
	var dropped []memory.LineAddr
	c.OnFlashDrop(func(l memory.LineAddr) { dropped = append(dropped, l) })
	// Set 0 gets 0, 4, 8: line 0 (TI) moves to the victim buffer.
	c.Insert(Line{Tag: 0, State: TI})
	c.Insert(Line{Tag: 4, State: TMI})
	c.Insert(Line{Tag: 8, State: Modified})
	c.Insert(Line{Tag: 1, State: TI})
	c.Insert(Line{Tag: 2, State: Shared})
	c.FlashCommit()
	if fmt.Sprint(dropped) != "[1 0]" {
		t.Fatalf("FlashCommit dropped %v, want [1 0] (set array, then victim buffer)", dropped)
	}
	dropped = nil
	c.Lookup(2).State = TI
	c.Lookup(4).State = TMI // committed to M above; speculative again
	c.FlashAbort()
	if fmt.Sprint(dropped) != "[4 2]" {
		t.Fatalf("FlashAbort dropped %v, want [4 2]", dropped)
	}
	var valid []memory.LineAddr
	c.EachValid(func(ln Line) { valid = append(valid, ln.Tag) })
	if fmt.Sprint(valid) != "[8]" {
		t.Fatalf("valid after flash walks = %v, want [8]", valid)
	}
}

func TestFlashOpsAreAllocationFree(t *testing.T) {
	c := New(DefaultL1Config())
	// Three lines in set 0: one ends up in the victim buffer.
	for _, l := range []memory.LineAddr{0, 256, 512, 7} {
		c.Insert(Line{Tag: l, State: Shared})
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.Lookup(7).Alert = true
		c.Lookup(0).Alert = true
		c.Lookup(512).State = TMI
		c.FlashCommit()
		c.FlashAbort()
		c.ClearAlerts()
	})
	if allocs != 0 {
		t.Fatalf("Lookup+FlashCommit+FlashAbort+ClearAlerts: %v allocs, want 0", allocs)
	}
}

// TestInsertSpillAllocatesNothing checks that an Insert that pushes a line
// out of the victim buffer hands it back without allocating, both from a
// full victim buffer and with no victim buffer at all.
func TestInsertSpillAllocatesNothing(t *testing.T) {
	for _, cfg := range []Config{DefaultL1Config(), {Sets: 4, Ways: 2, VictimSize: 0}} {
		c := New(cfg)
		// Every line maps to set 0; once both ways and the victim buffer
		// are full, each Insert spills exactly one line.
		next := 0
		insert := func() []Victimized {
			next++
			return c.Insert(Line{Tag: memory.LineAddr(next * cfg.Sets), State: Modified})
		}
		for i := 0; i < cfg.Ways+cfg.VictimSize; i++ {
			if sp := insert(); sp != nil {
				t.Fatalf("%+v: fill %d spilled %v, want nil", cfg, i, sp)
			}
		}
		bad := 0
		allocs := testing.AllocsPerRun(100, func() {
			if sp := insert(); len(sp) != 1 || sp[0].Line.State != Modified {
				bad++
			}
		})
		if bad != 0 {
			t.Fatalf("%+v: %d Inserts did not spill exactly one line", cfg, bad)
		}
		if allocs != 0 {
			t.Fatalf("%+v: spilling Insert: %v allocs, want 0", cfg, allocs)
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	cfg := DefaultL1Config()
	b.Run("set-hit", func(b *testing.B) {
		c := New(cfg)
		c.Insert(Line{Tag: 5, State: Shared})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Lookup(5)
		}
	})
	b.Run("miss-full-victim", func(b *testing.B) {
		c := New(cfg)
		// Ways+VictimSize lines in set 0: both ways and every victim entry.
		for i := 0; i < cfg.Ways+cfg.VictimSize; i++ {
			if sp := c.Insert(Line{Tag: memory.LineAddr(i * cfg.Sets), State: Shared}); sp != nil {
				b.Fatal("victim buffer spilled while filling")
			}
		}
		miss := memory.LineAddr((cfg.Ways + cfg.VictimSize) * cfg.Sets)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if c.Lookup(miss) != nil {
				b.Fatal("phantom hit")
			}
		}
	})
}

// BenchmarkFlashCommit prices one commit of a write set spread over a full
// L1. Each iteration re-arms the write set to TMI through Lookup, as a
// transaction's stores would, so the time includes those lookups.
func BenchmarkFlashCommit(b *testing.B) {
	cfg := DefaultL1Config()
	slots := cfg.Sets * cfg.Ways
	for _, ws := range []int{2, 16, 64} {
		b.Run(fmt.Sprintf("ws=%d", ws), func(b *testing.B) {
			c := New(cfg)
			for l := 0; l < slots; l++ {
				c.Insert(Line{Tag: memory.LineAddr(l), State: Shared})
			}
			if c.Resident() != slots {
				b.Fatalf("Resident = %d, want %d", c.Resident(), slots)
			}
			writeSet := make([]memory.LineAddr, ws)
			for i := range writeSet {
				writeSet[i] = memory.LineAddr(i * slots / ws)
			}
			c.FlashCommit()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, l := range writeSet {
					c.Lookup(l).State = TMI
				}
				if n := c.FlashCommit(); n != ws {
					b.Fatalf("committed %d lines, want %d", n, ws)
				}
			}
		})
	}
}
