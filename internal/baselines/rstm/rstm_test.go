package rstm

import (
	"testing"

	"flextm/internal/memory"
	"flextm/internal/sim"
	"flextm/internal/tmapi"
	"flextm/internal/tmesi"
)

// TestCollidingLinesShareOneHeader: two lines whose headers collide are
// one object to RSTM. A transaction that writes both finds the header
// already its own on the second open; committing publishes both values
// and releases the header unowned with exactly one version bump, and
// aborting leaves both lines and the header as they were.
func TestCollidingLinesShareOneHeader(t *testing.T) {
	cfg := tmesi.DefaultConfig()
	cfg.Cores = 2
	sys := tmesi.New(cfg)
	rt := New(sys)
	const lines = 1<<13 + 1 // past one full turn of the 8,192-header hash
	base := sys.Alloc().Alloc(lines * memory.LineWords)
	l1 := base.Line()
	l2 := l1 + 1
	for l2 < l1+lines && rt.headers.Of(l2) != rt.headers.Of(l1) {
		l2++
	}
	if l2 >= l1+lines {
		t.Fatalf("no line colliding with %d in the region", l1)
	}
	a, b, hdr := l1.WordOf(0), l2.WordOf(3), rt.headers.Of(l1)
	h0 := sys.ReadWordRaw(hdr)

	e := sim.NewEngine()
	e.Spawn("w", 0, func(ctx *sim.Ctx) {
		th := rt.Bind(ctx, 0)
		first := true
		th.Atomic(func(tx tmapi.Txn) {
			if !first {
				if va, vb, h := sys.ReadWordRaw(a), sys.ReadWordRaw(b), sys.ReadWordRaw(hdr); va != 0 || vb != 0 || h != h0 {
					t.Errorf("after the abort: lines %d, %d and header %#x, want 0, 0 and %#x", va, vb, h, h0)
				}
				return
			}
			first = false
			tx.Store(a, 1)
			tx.Store(b, 2)
			if h := sys.ReadWordRaw(hdr); h != h0|1 {
				t.Errorf("header %#x while both lines are open, want %#x (owned by core 0)", h, h0|1)
			}
			tx.Abort()
		})
		th.Atomic(func(tx tmapi.Txn) {
			tx.Store(a, 11)
			tx.Store(b, 22)
		})
	})
	if blocked := e.Run(); blocked != 0 {
		t.Fatalf("%d threads blocked", blocked)
	}
	if va, vb := sys.ReadWordRaw(a), sys.ReadWordRaw(b); va != 11 || vb != 22 {
		t.Errorf("committed lines hold %d and %d, want 11 and 22", va, vb)
	}
	if h := sys.ReadWordRaw(hdr); h != h0+1<<8 {
		t.Errorf("header %#x after commit, want %#x (unowned, one version bump)", h, h0+1<<8)
	}
	if s := rt.Stats(); s.Commits != 2 || s.Aborts != 1 {
		t.Errorf("stats %+v, want 2 commits and 1 abort", s)
	}
}
