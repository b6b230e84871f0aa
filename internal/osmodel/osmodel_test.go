package osmodel

import (
	"slices"
	"testing"

	"flextm/internal/cm"
	"flextm/internal/core"
	"flextm/internal/memory"
	"flextm/internal/sim"
	"flextm/internal/tmapi"
	"flextm/internal/tmesi"
)

// fixture builds a machine, runtime, and OS manager.
func fixture(mode core.Mode) (*tmesi.System, *core.Runtime, *Manager) {
	cfg := tmesi.DefaultConfig()
	cfg.Cores = 4
	sys := tmesi.New(cfg)
	rt := core.New(sys, mode, cm.NewPolka())
	return sys, rt, New(sys, rt)
}

// parkDuring runs victim on core 0 and an OS script that parks it the first
// time it reaches a sync point after osDelay, runs between(), then resumes
// it resumeDelay cycles later (possibly on another core via resumeCore).
func parkDuring(t *testing.T, sys *tmesi.System, rt *core.Runtime, m *Manager,
	victim func(th tmapi.Thread), osDelay, resumeDelay sim.Time,
	between func(ctx *sim.Ctx)) {
	t.Helper()
	e := sim.NewEngine()
	var vctx *sim.Ctx
	var susp *Suspended
	vctx = e.Spawn("victim", 0, func(ctx *sim.Ctx) {
		victim(rt.Bind(ctx, 0))
	})
	e.Spawn("os", 0, func(ctx *sim.Ctx) {
		ctx.Advance(osDelay)
		ctx.Sync()
		e.RequestPark(vctx, func(v *sim.Ctx) {
			susp = m.Suspend(v, 0)
		})
		ctx.Advance(resumeDelay)
		ctx.Sync()
		if between != nil {
			between(ctx)
		}
		if susp != nil {
			m.Resume(ctx, 0, susp)
		}
		e.Unblock(vctx, ctx.Now())
	})
	if blocked := e.Run(); blocked != 0 {
		t.Fatalf("%d threads blocked", blocked)
	}
}

func TestSuspendResumeTransparent(t *testing.T) {
	sys, rt, m := fixture(core.Lazy)
	x := sys.Alloc().Alloc(1)
	victim := func(th tmapi.Thread) {
		th.Atomic(func(tx tmapi.Txn) {
			tx.Store(x, 5)
			// Plenty of sync points for the park to land on.
			for i := 0; i < 50; i++ {
				tx.Load(x)
				th.Work(50)
			}
		})
	}
	parkDuring(t, sys, rt, m, victim, 500, 5000, nil)
	if v := sys.ReadWordRaw(x); v != 5 {
		t.Fatalf("x = %d, want 5 (suspended txn must still commit)", v)
	}
	if s := rt.Stats(); s.Commits != 1 || s.Aborts != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if m.SuspendedCount() != 0 {
		t.Fatal("CMT not drained")
	}
}

func TestSuspendedStateInvisibleWhileParked(t *testing.T) {
	sys, rt, m := fixture(core.Lazy)
	x := sys.Alloc().Alloc(1)
	sys.Image().WriteWord(x, 1)
	victim := func(th tmapi.Thread) {
		th.Atomic(func(tx tmapi.Txn) {
			tx.Store(x, 99)
			for i := 0; i < 50; i++ {
				tx.Load(x)
				th.Work(50)
			}
		})
	}
	sawDuringSuspend := uint64(0)
	parkDuring(t, sys, rt, m, victim, 500, 8000, func(ctx *sim.Ctx) {
		sawDuringSuspend = sys.Load(ctx, 2, x).Val
	})
	if sawDuringSuspend != 1 {
		t.Fatalf("reader saw %d during suspension, want committed 1", sawDuringSuspend)
	}
	if v := sys.ReadWordRaw(x); v != 99 {
		t.Fatalf("x = %d after resume+commit, want 99", v)
	}
}

func TestLazyCommitAbortsSuspendedConflictor(t *testing.T) {
	sys, rt, m := fixture(core.Lazy)
	x := sys.Alloc().Alloc(1)
	e := sim.NewEngine()
	var vctx *sim.Ctx
	var susp *Suspended
	ready := false
	vctx = e.Spawn("victim", 0, func(ctx *sim.Ctx) {
		th := rt.Bind(ctx, 0)
		th.Atomic(func(tx tmapi.Txn) {
			tx.Store(x, tx.Load(x)+1)
			ready = true
			for i := 0; i < 40; i++ {
				tx.Load(x)
				th.Work(50)
			}
		})
	})
	e.Spawn("os+writer", 0, func(ctx *sim.Ctx) {
		for !ready {
			ctx.Advance(200)
			ctx.Sync()
		}
		e.RequestPark(vctx, func(v *sim.Ctx) { susp = m.Suspend(v, 0) })
		ctx.Advance(1000)
		ctx.Sync()
		// A running transaction on core 1 writes x while the victim is
		// suspended: the summary signatures must catch the conflict, and
		// the writer's commit must abort the suspended transaction.
		th := rt.Bind(ctx, 1)
		th.Atomic(func(tx tmapi.Txn) {
			tx.Store(x, tx.Load(x)+1)
		})
		if susp != nil {
			m.Resume(ctx, 0, susp)
			e.Unblock(vctx, ctx.Now())
		}
	})
	if blocked := e.Run(); blocked != 0 {
		t.Fatalf("%d threads blocked", blocked)
	}
	// Both increments must survive: the suspended txn was aborted by the
	// writer's commit and retried after resume.
	if v := sys.ReadWordRaw(x); v != 2 {
		t.Fatalf("x = %d, want 2 (no lost update through suspension)", v)
	}
	s := rt.Stats()
	if s.Commits != 2 {
		t.Fatalf("commits = %d, want 2", s.Commits)
	}
	if s.Aborts == 0 {
		t.Fatal("suspended conflictor was never aborted")
	}
	if sys.Stats().SummaryTraps == 0 {
		t.Fatal("summary signatures never consulted")
	}
}

func TestEagerTrapAbortsSuspendedImmediately(t *testing.T) {
	sys, rt, m := fixture(core.Eager)
	x := sys.Alloc().Alloc(1)
	e := sim.NewEngine()
	var vctx *sim.Ctx
	var susp *Suspended
	ready := false
	vctx = e.Spawn("victim", 0, func(ctx *sim.Ctx) {
		th := rt.Bind(ctx, 0)
		th.Atomic(func(tx tmapi.Txn) {
			tx.Store(x, tx.Load(x)+1)
			ready = true
			for i := 0; i < 40; i++ {
				tx.Load(x)
				th.Work(50)
			}
		})
	})
	e.Spawn("os+reader", 0, func(ctx *sim.Ctx) {
		for !ready {
			ctx.Advance(200)
			ctx.Sync()
		}
		e.RequestPark(vctx, func(v *sim.Ctx) { susp = m.Suspend(v, 0) })
		ctx.Advance(1000)
		ctx.Sync()
		th := rt.Bind(ctx, 1)
		th.Atomic(func(tx tmapi.Txn) { tx.Load(x) }) // summary hit -> abort suspended
		if susp != nil {
			m.Resume(ctx, 0, susp)
			e.Unblock(vctx, ctx.Now())
		}
	})
	if blocked := e.Run(); blocked != 0 {
		t.Fatalf("%d threads blocked", blocked)
	}
	if v := sys.ReadWordRaw(x); v != 1 {
		t.Fatalf("x = %d, want 1", v)
	}
	s := rt.Stats()
	if s.Aborts == 0 {
		t.Fatal("eager mode should have aborted the suspended transaction (no convoying)")
	}
	if s.Commits != 2 {
		t.Fatalf("commits = %d, want 2", s.Commits)
	}
}

func TestMigrationAbortsAndRestarts(t *testing.T) {
	sys, rt, m := fixture(core.Lazy)
	x := sys.Alloc().Alloc(1)
	e := sim.NewEngine()
	var vctx *sim.Ctx
	var susp *Suspended
	vctx = e.Spawn("victim", 0, func(ctx *sim.Ctx) {
		th := rt.Bind(ctx, 0)
		th.Atomic(func(tx tmapi.Txn) {
			tx.Store(x, 7)
			for i := 0; i < 40; i++ {
				tx.Load(x)
				th.Work(50)
			}
		})
	})
	e.Spawn("os", 0, func(ctx *sim.Ctx) {
		ctx.Advance(500)
		ctx.Sync()
		e.RequestPark(vctx, func(v *sim.Ctx) { susp = m.Suspend(v, 0) })
		ctx.Advance(1000)
		ctx.Sync()
		if susp != nil {
			// "Migrate" to core 2: FlexTM's policy is abort-and-restart.
			// The thread itself still runs with core-0 bindings in this
			// model, so resume it there after the abort.
			m.Resume(ctx, 2, susp)
			e.Unblock(vctx, ctx.Now())
		}
	})
	if blocked := e.Run(); blocked != 0 {
		t.Fatalf("%d threads blocked", blocked)
	}
	if v := sys.ReadWordRaw(x); v != 7 {
		t.Fatalf("x = %d, want 7 (restart must still commit)", v)
	}
	if s := rt.Stats(); s.Aborts == 0 {
		t.Fatal("migration did not abort the transaction")
	}
}

func TestNoTrapWithoutOverlap(t *testing.T) {
	sys, rt, m := fixture(core.Lazy)
	x := sys.Alloc().Alloc(1)
	y := sys.Alloc().Alloc(1)
	victim := func(th tmapi.Thread) {
		th.Atomic(func(tx tmapi.Txn) {
			tx.Store(x, 5)
			for i := 0; i < 40; i++ {
				tx.Load(x)
				th.Work(50)
			}
		})
	}
	parkDuring(t, sys, rt, m, victim, 500, 5000, func(ctx *sim.Ctx) {
		sys.Load(ctx, 2, y) // disjoint line: must not trap
	})
	if sys.Stats().SummaryTraps != 0 {
		t.Fatalf("SummaryTraps = %d on a disjoint access", sys.Stats().SummaryTraps)
	}
}

func TestAnotherThreadUsesCoreWhileSuspended(t *testing.T) {
	sys, rt, m := fixture(core.Lazy)
	x := sys.Alloc().Alloc(1)
	y := sys.Alloc().Alloc(1)
	e := sim.NewEngine()
	var vctx *sim.Ctx
	var susp *Suspended
	vctx = e.Spawn("victim", 0, func(ctx *sim.Ctx) {
		th := rt.Bind(ctx, 0)
		th.Atomic(func(tx tmapi.Txn) {
			tx.Store(x, 11)
			for i := 0; i < 40; i++ {
				tx.Load(x)
				th.Work(50)
			}
		})
	})
	e.Spawn("os", 0, func(ctx *sim.Ctx) {
		ctx.Advance(500)
		ctx.Sync()
		e.RequestPark(vctx, func(v *sim.Ctx) { susp = m.Suspend(v, 0) })
		ctx.Advance(500)
		ctx.Sync()
		// A different thread runs a transaction on core 0 while the victim
		// is suspended (the point of virtualization).
		other := rt.Bind(ctx, 0)
		other.Atomic(func(tx tmapi.Txn) { tx.Store(y, 22) })
		if susp != nil {
			m.Resume(ctx, 0, susp)
			e.Unblock(vctx, ctx.Now())
		}
	})
	if blocked := e.Run(); blocked != 0 {
		t.Fatalf("%d threads blocked", blocked)
	}
	if sys.ReadWordRaw(x) != 11 || sys.ReadWordRaw(y) != 22 {
		t.Fatalf("x=%d y=%d, want 11/22", sys.ReadWordRaw(x), sys.ReadWordRaw(y))
	}
	if s := rt.Stats(); s.Commits != 2 {
		t.Fatalf("commits = %d, want 2", s.Commits)
	}
}

// scriptCM waits on every conflict and logs the enemies that core 0's
// threads are shown; other tells the threads of core 0 apart. The first
// conflict core 0 meets calls onFirst, from inside the contention manager.
type scriptCM struct {
	other   bool
	victim  []int
	next    []int
	onFirst func()
}

func (*scriptCM) Name() string                         { return "script" }
func (*scriptCM) RetryBackoff(int, *sim.Rand) sim.Time { return 10 }
func (m *scriptCM) OnConflict(c cm.Conflict, _ *sim.Rand) (cm.Decision, sim.Time) {
	if c.Me == 0 {
		if m.other {
			m.next = append(m.next, c.Enemy)
		} else {
			m.victim = append(m.victim, c.Enemy)
		}
		if f := m.onFirst; f != nil {
			m.onFirst = nil
			f()
		}
	}
	return cm.Wait, 100
}

// TestPreemptedEagerRoundKeepsItsConflicts: a thread descheduled while its
// eager contention manager works through a round's conflicts resumes with
// that round's list, although the next thread on its core ran transactional
// rounds of its own in between. The victim's TStore of x draws Exposed-Read
// responses from cores 1 and 2 and is parked while waiting on core 1; the
// next thread's TStore of y draws them from cores 1 and 3.
func TestPreemptedEagerRoundKeepsItsConflicts(t *testing.T) {
	sys, rt, m := fixture(core.Eager)
	script := &scriptCM{}
	rt.SetCM(script)
	x := sys.Alloc().Alloc(memory.LineWords)
	y := sys.Alloc().Alloc(memory.LineWords)
	e := sim.NewEngine()
	reader := func(id int, addrs ...memory.Addr) {
		e.Spawn("reader", 0, func(ctx *sim.Ctx) {
			th := rt.Bind(ctx, id)
			th.Atomic(func(tx tmapi.Txn) {
				for _, a := range addrs {
					tx.Load(a)
				}
				th.Work(20000)
			})
		})
	}
	reader(1, x, y)
	reader(2, x)
	reader(3, y)
	var vctx *sim.Ctx
	var susp *Suspended
	parked := false
	script.onFirst = func() {
		e.RequestPark(vctx, func(v *sim.Ctx) {
			susp = m.Suspend(v, 0)
			parked = true
		})
	}
	vctx = e.Spawn("victim", 0, func(ctx *sim.Ctx) {
		th := rt.Bind(ctx, 0)
		th.Work(1000)
		th.Atomic(func(tx tmapi.Txn) { tx.Store(x, 1) })
	})
	e.Spawn("os", 0, func(ctx *sim.Ctx) {
		for !parked {
			ctx.Advance(50)
			ctx.Sync()
		}
		script.other = true
		rt.Bind(ctx, 0).Atomic(func(tx tmapi.Txn) { tx.Store(y, 2) })
		script.other = false
		if susp == nil {
			t.Error("the victim's transaction was not live when it parked")
			e.Unblock(vctx, ctx.Now())
			return
		}
		m.Resume(ctx, 0, susp)
		e.Unblock(vctx, ctx.Now())
	})
	if blocked := e.Run(); blocked != 0 {
		t.Fatalf("%d threads blocked", blocked)
	}
	if !slices.Contains(script.next, 3) || slices.Contains(script.next, 2) {
		t.Fatalf("next thread's enemies = %v, want cores 1 and 3", script.next)
	}
	for _, enemy := range script.victim {
		if enemy != 1 && enemy != 2 {
			t.Fatalf("victim's enemies = %v: core %d is not in its round", script.victim, enemy)
		}
	}
	if !slices.Contains(script.victim, 2) {
		t.Fatalf("victim's enemies = %v: it never resolved core 2", script.victim)
	}
	if sys.ReadWordRaw(x) != 1 || sys.ReadWordRaw(y) != 2 {
		t.Fatalf("x=%d y=%d, want 1/2", sys.ReadWordRaw(x), sys.ReadWordRaw(y))
	}
}

var _ = memory.Addr(0)

func TestSuspendDuringAbortTeardownCleansCore(t *testing.T) {
	// Regression: a thread preempted inside its abort handler has a dead
	// descriptor (CurrentTSW == 0) but the hardware is still in
	// transactional mode. Suspend must finish the flash on its behalf, or
	// the next thread's BeginTxn panics on an already-active core.
	sys, rt, m := fixture(core.Lazy)
	e := sim.NewEngine()
	e.Spawn("t", 0, func(ctx *sim.Ctx) {
		sys.BeginTxn(0) // hardware active, no live runtime descriptor
		sys.TStore(ctx, 0, 4242, 7)
		if s := m.Suspend(ctx, 0); s != nil {
			t.Error("Suspend of a descriptor-less core should return nil")
		}
		if sys.TxnActive(0) {
			t.Error("Suspend left the core in transactional mode")
		}
		if sys.ReadWordRaw(4242) != 0 {
			t.Error("speculative state leaked through the teardown")
		}
		// The core is clean: a fresh transaction must work.
		th := rt.Bind(ctx, 0)
		th.Atomic(func(tx tmapi.Txn) { tx.Store(4242, 9) })
	})
	if blocked := e.Run(); blocked != 0 {
		t.Fatalf("%d threads blocked", blocked)
	}
	if v := sys.ReadWordRaw(4242); v != 9 {
		t.Fatalf("x = %d, want 9", v)
	}
}
