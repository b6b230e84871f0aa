package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"flextm/internal/cm"
	"flextm/internal/sim"
	"flextm/internal/tmapi"
	"flextm/internal/tmesi"
)

// duel runs two threads on cores 0 and 1 of a fresh two-core machine under
// mode. Each commits read-modify-writes of one shared word, with work
// between the read and the write so that attempts overlap and conflict,
// and thinks between sections so that neither core starves the other.
// The threads call mark once warm transactions have committed between
// them and again once warm+n have, and stop at the second mark. Each
// thread builds its body once, so the sections pass Atomic no new closure.
func duel(tb testing.TB, mode Mode, warm, n uint64, mark func(rt *Runtime)) *Runtime {
	tb.Helper()
	cfg := tmesi.DefaultConfig()
	cfg.Cores = 2
	sys := tmesi.New(cfg)
	rt := New(sys, mode, cm.NewPolka())
	x := sys.Alloc().Alloc(1)
	marks := 0
	e := sim.NewEngine()
	for core, work := range []sim.Time{40, 30} {
		e.Spawn("worker", 0, func(ctx *sim.Ctx) {
			th := rt.BindThread(ctx, core)
			inc := func(tx tmapi.Txn) {
				v := tx.Load(x)
				th.Work(work)
				tx.Store(x, v+1)
			}
			for marks < 2 {
				th.Atomic(inc)
				th.Work(3 * work)
				if c := rt.commits(); marks == 0 && c >= warm || marks == 1 && c >= warm+n {
					mark(rt)
					marks++
				}
			}
		})
	}
	if blocked := e.Run(); blocked != 0 {
		tb.Fatalf("%v: %d threads blocked", mode, blocked)
	}
	return rt
}

// commits sums the runtime's per-core commit counts without allocating.
func (rt *Runtime) commits() uint64 {
	var n uint64
	for i := range rt.stats {
		n += rt.stats[i].Commits
	}
	return n
}

// TestConflictingTransactionsAllocateNothing holds FlexTM's transaction
// path to no heap allocation per committed transaction under conflict:
// conflict responses land in the requesting core's reused buffer, each
// thread alternates between two descriptor slots, and commit walks its
// CST bits in place. The count is the Mallocs delta over the measured
// sections of both threads, with the collector held off as
// testing.AllocsPerRun does. It is bounded as a whole, not per
// transaction, so that even one allocation on a fraction of the commits
// fails; conflict degrees land in a fixed per-degree count, so no growth
// is allowed either. The sections pass no closure of their own.
func TestConflictingTransactionsAllocateNothing(t *testing.T) {
	const growthAllocs = 0
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, mode := range []Mode{Eager, Lazy} {
		t.Run(mode.String(), func(t *testing.T) {
			var ms runtime.MemStats
			var mallocs, commits [2]uint64
			marks := 0
			runtime.GC()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			rt := duel(t, mode, 100, 2000, func(rt *Runtime) {
				runtime.ReadMemStats(&ms)
				mallocs[marks], commits[marks] = ms.Mallocs, rt.commits()
				marks++
			})
			n := commits[1] - commits[0]
			if aborts := rt.Stats().Aborts; aborts == 0 {
				t.Fatalf("%d commits and no abort: the threads never conflicted", n)
			}
			if d := mallocs[1] - mallocs[0]; d > growthAllocs {
				t.Errorf("%d allocations over %d committed transactions, want at most %d",
					d, n, growthAllocs)
			}
		})
	}
}

// TestStaleTxnHandleNeverValidatesLaterAttempt: a handle taken before an
// abort stays invalid through the thread's next attempts, including the
// one that reuses its descriptor slot.
func TestStaleTxnHandleNeverValidatesLaterAttempt(t *testing.T) {
	sys := tmesi.New(testCfg())
	rt := New(sys, Lazy, cm.NewPolka())
	x := sys.Alloc().Alloc(1)
	var h TxnHandle
	attempt := 0
	runThreads(t, rt, func(th tmapi.Thread) {
		th.Atomic(func(tx tmapi.Txn) {
			attempt++
			tx.Store(x, uint64(attempt))
			switch attempt {
			case 1:
				if h = rt.DetachTxn(0); !h.Valid() {
					t.Fatal("handle to the live attempt is invalid")
				}
				tx.Abort()
			case 2:
				if h.Valid() {
					t.Error("handle validates the next attempt")
				}
				tx.Abort()
			case 3:
				if h.Valid() {
					t.Error("handle validates the attempt that reuses its descriptor")
				}
			}
		})
	})
	if attempt != 3 {
		t.Fatalf("%d attempts, want 3", attempt)
	}
}

// BenchmarkConflictingAtomic prices FlexTM's whole transaction path under
// conflict: one op is one committed read-modify-write of a word that the
// other core's transactions read and write too, aborts and contention
// management included.
func BenchmarkConflictingAtomic(b *testing.B) {
	for _, mode := range []Mode{Eager, Lazy} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			started := false
			duel(b, mode, 20, uint64(b.N), func(*Runtime) {
				if started {
					b.StopTimer()
					return
				}
				started = true
				b.ResetTimer()
			})
		})
	}
}
