package core

import (
	"testing"

	"flextm/internal/cache"
	"flextm/internal/causal"
	"flextm/internal/cm"
	"flextm/internal/flight"
	"flextm/internal/memory"
	"flextm/internal/sim"
	"flextm/internal/tmapi"
	"flextm/internal/tmesi"
)

func testCfg() tmesi.Config {
	cfg := tmesi.DefaultConfig()
	cfg.Cores = 8
	return cfg
}

// tinyCacheCfg forces TMI evictions into the overflow table.
func tinyCacheCfg() tmesi.Config {
	cfg := testCfg()
	cfg.L1 = cache.Config{Sets: 4, Ways: 2, VictimSize: 2}
	return cfg
}

// runThreads spawns one FlexTM thread per body and runs to completion.
func runThreads(t *testing.T, rt *Runtime, bodies ...func(th tmapi.Thread)) {
	t.Helper()
	e := sim.NewEngine()
	for i, b := range bodies {
		core, body := i, b
		e.Spawn("worker", 0, func(ctx *sim.Ctx) {
			body(rt.Bind(ctx, core))
		})
	}
	if blocked := e.Run(); blocked != 0 {
		t.Fatalf("%d threads blocked (deadlock)", blocked)
	}
}

func TestSingleThreadCommit(t *testing.T) {
	for _, mode := range []Mode{Eager, Lazy} {
		sys := tmesi.New(testCfg())
		rt := New(sys, mode, cm.NewPolka())
		x := sys.Alloc().Alloc(1)
		runThreads(t, rt, func(th tmapi.Thread) {
			th.Atomic(func(tx tmapi.Txn) {
				tx.Store(x, tx.Load(x)+5)
			})
		})
		if v := sys.ReadWordRaw(x); v != 5 {
			t.Errorf("%v: x = %d, want 5", mode, v)
		}
		if s := rt.Stats(); s.Commits != 1 || s.Aborts != 0 {
			t.Errorf("%v: stats = %+v", mode, s)
		}
	}
}

func TestUserAbortRollsBack(t *testing.T) {
	sys := tmesi.New(testCfg())
	rt := New(sys, Lazy, cm.NewPolka())
	x := sys.Alloc().Alloc(1)
	runThreads(t, rt, func(th tmapi.Thread) {
		first := true
		th.Atomic(func(tx tmapi.Txn) {
			tx.Store(x, 99)
			if first {
				first = false
				tx.Abort()
			}
			tx.Store(x, 7)
		})
	})
	if v := sys.ReadWordRaw(x); v != 7 {
		t.Fatalf("x = %d, want 7", v)
	}
	if s := rt.Stats(); s.Commits != 1 || s.Aborts != 1 {
		t.Fatalf("stats = %+v, want 1 commit / 1 abort", s)
	}
}

func TestContendedCounterSerializes(t *testing.T) {
	const threads, incs = 6, 40
	for _, mode := range []Mode{Eager, Lazy} {
		sys := tmesi.New(testCfg())
		rt := New(sys, mode, cm.NewPolka())
		x := sys.Alloc().Alloc(1)
		bodies := make([]func(tmapi.Thread), threads)
		for i := range bodies {
			bodies[i] = func(th tmapi.Thread) {
				for j := 0; j < incs; j++ {
					th.Atomic(func(tx tmapi.Txn) {
						tx.Store(x, tx.Load(x)+1)
					})
					th.Work(50)
				}
			}
		}
		runThreads(t, rt, bodies...)
		if v := sys.ReadWordRaw(x); v != threads*incs {
			t.Errorf("%v: counter = %d, want %d (lost/duplicated updates)",
				mode, v, threads*incs)
		}
		if s := rt.Stats(); s.Commits != threads*incs {
			t.Errorf("%v: commits = %d, want %d", mode, s.Commits, threads*incs)
		}
	}
}

func TestBankTransfersConserveTotal(t *testing.T) {
	const accounts, threads, transfers, initial = 16, 6, 30, 1000
	for _, mode := range []Mode{Eager, Lazy} {
		for _, cfg := range []tmesi.Config{testCfg(), tinyCacheCfg()} {
			sys := tmesi.New(cfg)
			rt := New(sys, mode, cm.NewPolka())
			base := sys.Alloc().Alloc(accounts * memory.LineWords)
			acct := func(i int) memory.Addr { return base + memory.Addr(i*memory.LineWords) }
			for i := 0; i < accounts; i++ {
				sys.Image().WriteWord(acct(i), initial)
			}
			bodies := make([]func(tmapi.Thread), threads)
			for i := range bodies {
				bodies[i] = func(th tmapi.Thread) {
					r := th.Rand()
					for j := 0; j < transfers; j++ {
						from, to := r.Intn(accounts), r.Intn(accounts)
						amt := uint64(r.Intn(10))
						th.Atomic(func(tx tmapi.Txn) {
							f := tx.Load(acct(from))
							if f < amt {
								return
							}
							tx.Store(acct(from), f-amt)
							tx.Store(acct(to), tx.Load(acct(to))+amt)
						})
					}
				}
			}
			runThreads(t, rt, bodies...)
			var total uint64
			for i := 0; i < accounts; i++ {
				total += sys.ReadWordRaw(acct(i))
			}
			if total != accounts*initial {
				t.Errorf("%v/%d-set L1: total = %d, want %d",
					mode, cfg.L1.Sets, total, accounts*initial)
			}
		}
	}
}

func TestOverflowingTransactionCommits(t *testing.T) {
	sys := tmesi.New(tinyCacheCfg())
	rt := New(sys, Lazy, cm.NewPolka())
	base := sys.Alloc().Alloc(32 * memory.LineWords)
	runThreads(t, rt, func(th tmapi.Thread) {
		th.Atomic(func(tx tmapi.Txn) {
			for i := 0; i < 32; i++ {
				tx.Store(base+memory.Addr(i*memory.LineWords), uint64(i+1))
			}
		})
	})
	for i := 0; i < 32; i++ {
		if v := sys.ReadWordRaw(base + memory.Addr(i*memory.LineWords)); v != uint64(i+1) {
			t.Fatalf("word %d = %d after overflowing commit", i, v)
		}
	}
	if sys.Stats().Overflows == 0 {
		t.Fatal("test did not exercise the overflow path")
	}
}

func TestStrongIsolationAbortsReader(t *testing.T) {
	sys := tmesi.New(testCfg())
	rt := New(sys, Eager, cm.NewPolka())
	x := sys.Alloc().Alloc(1)
	y := sys.Alloc().Alloc(1)
	runThreads(t, rt, func(th tmapi.Thread) {
		th.Atomic(func(tx tmapi.Txn) {
			tx.Load(x)
			th.Work(3000) // window for the conflicting plain store
			tx.Store(y, tx.Load(x))
		})
	}, func(th tmapi.Thread) {
		th.Work(1000)
		th.Store(x, 42) // non-transactional write into the reader's read set
	})
	if s := rt.Stats(); s.Aborts == 0 {
		t.Fatal("strong isolation did not abort the conflicting transaction")
	}
	if v := sys.ReadWordRaw(y); v != 42 {
		t.Fatalf("y = %d, want 42 (retried txn must see the plain store)", v)
	}
}

func TestLazyWritersOneWinsOneRetries(t *testing.T) {
	sys := tmesi.New(testCfg())
	rt := New(sys, Lazy, cm.NewPolka())
	x := sys.Alloc().Alloc(1)
	mark := sys.Alloc().Alloc(2)
	body := func(id int) func(th tmapi.Thread) {
		return func(th tmapi.Thread) {
			th.Work(sim.Time(id) * 10)
			th.Atomic(func(tx tmapi.Txn) {
				v := tx.Load(x)
				th.Work(2000) // force overlap
				tx.Store(x, v+1)
			})
			th.Store(mark+memory.Addr(id), 1)
		}
	}
	runThreads(t, rt, body(0), body(1))
	if v := sys.ReadWordRaw(x); v != 2 {
		t.Fatalf("x = %d, want 2", v)
	}
	s := rt.Stats()
	if s.Commits != 2 {
		t.Fatalf("commits = %d, want 2", s.Commits)
	}
	if s.Aborts == 0 {
		t.Fatal("overlapping writers should have produced at least one abort")
	}
}

func TestConflictDegreesRecorded(t *testing.T) {
	sys := tmesi.New(testCfg())
	rt := New(sys, Lazy, cm.NewPolka())
	x := sys.Alloc().Alloc(1)
	bodies := make([]func(tmapi.Thread), 4)
	for i := range bodies {
		bodies[i] = func(th tmapi.Thread) {
			th.Atomic(func(tx tmapi.Txn) {
				v := tx.Load(x)
				th.Work(2000)
				tx.Store(x, v+1)
			})
		}
	}
	runThreads(t, rt, bodies...)
	s := rt.Stats()
	var sum uint64
	for _, n := range s.ConflictDegrees {
		sum += n
	}
	if sum != s.Commits {
		t.Fatalf("%d degree samples for %d commits", sum, s.Commits)
	}
	_, mx := s.MedianMaxConflicts()
	if mx == 0 {
		t.Fatal("fully-overlapping writers recorded no conflicts")
	}
}

func TestNestedAtomicSubsumed(t *testing.T) {
	sys := tmesi.New(testCfg())
	rt := New(sys, Lazy, cm.NewPolka())
	x := sys.Alloc().Alloc(1)
	runThreads(t, rt, func(th tmapi.Thread) {
		th.Atomic(func(tx tmapi.Txn) {
			tx.Store(x, 1)
			th.Atomic(func(inner tmapi.Txn) {
				inner.Store(x, inner.Load(x)+1)
			})
		})
	})
	if v := sys.ReadWordRaw(x); v != 2 {
		t.Fatalf("x = %d, want 2", v)
	}
	if s := rt.Stats(); s.Commits != 1 {
		t.Fatalf("commits = %d, want 1 (inner txn must be subsumed)", s.Commits)
	}
}

func TestNestedAbortUnwindsWholeTxn(t *testing.T) {
	sys := tmesi.New(testCfg())
	rt := New(sys, Lazy, cm.NewPolka())
	x := sys.Alloc().Alloc(1)
	runThreads(t, rt, func(th tmapi.Thread) {
		first := true
		th.Atomic(func(tx tmapi.Txn) {
			tx.Store(x, 10)
			th.Atomic(func(inner tmapi.Txn) {
				if first {
					first = false
					inner.Abort()
				}
				inner.Store(x, 20)
			})
		})
	})
	if v := sys.ReadWordRaw(x); v != 20 {
		t.Fatalf("x = %d, want 20", v)
	}
	if s := rt.Stats(); s.Aborts != 1 || s.Commits != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestEagerManagersAllMakeProgress(t *testing.T) {
	for _, mgr := range []cm.Manager{cm.NewPolka(), cm.Timid{}, cm.Aggressive{}, cm.NewKarma(), cm.NewGreedy(), cm.NewTimestamp()} {
		sys := tmesi.New(testCfg())
		rt := New(sys, Eager, mgr)
		x := sys.Alloc().Alloc(1)
		bodies := make([]func(tmapi.Thread), 4)
		for i := range bodies {
			bodies[i] = func(th tmapi.Thread) {
				for j := 0; j < 10; j++ {
					th.Atomic(func(tx tmapi.Txn) {
						tx.Store(x, tx.Load(x)+1)
					})
					th.Work(100)
				}
			}
		}
		runThreads(t, rt, bodies...)
		if v := sys.ReadWordRaw(x); v != 40 {
			t.Errorf("%s: counter = %d, want 40", mgr.Name(), v)
		}
	}
}

func TestDeterministicRun(t *testing.T) {
	mk := func() (uint64, uint64, sim.Time) {
		sys := tmesi.New(testCfg())
		rt := New(sys, Lazy, cm.NewPolka())
		x := sys.Alloc().Alloc(1)
		e := sim.NewEngine()
		for i := 0; i < 4; i++ {
			core := i
			e.Spawn("w", 0, func(ctx *sim.Ctx) {
				th := rt.Bind(ctx, core)
				for j := 0; j < 20; j++ {
					th.Atomic(func(tx tmapi.Txn) {
						tx.Store(x, tx.Load(x)+1)
					})
				}
			})
		}
		e.Run()
		s := rt.Stats()
		return s.Commits, s.Aborts, e.MaxTime()
	}
	c1, a1, t1 := mk()
	c2, a2, t2 := mk()
	if c1 != c2 || a1 != a2 || t1 != t2 {
		t.Fatalf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", c1, a1, t1, c2, a2, t2)
	}
}

func TestCleanWRPreventsSpuriousAbort(t *testing.T) {
	// The writer TStores x first; the reader's TLoad is then Threatened, so
	// the conflict appears in the reader's R-W. When the reader commits
	// first, cleanWR scrubs its bit from the writer's W-R (Section 3.6),
	// and the writer's later commit must not abort the reader's next,
	// unrelated transaction.
	sys := tmesi.New(testCfg())
	rt := New(sys, Lazy, cm.NewPolka())
	x := sys.Alloc().Alloc(1)
	y := sys.Alloc().Alloc(1)
	run := func(clean bool) tmapi.Stats {
		sys := tmesi.New(testCfg())
		rt := New(sys, Lazy, cm.NewPolka())
		rt.SetCleanWR(clean)
		rt.SetSigScreen(false) // isolate the cleanWR mechanism
		x = sys.Alloc().Alloc(1)
		y = sys.Alloc().Alloc(1)
		runThreads(t, rt, func(th tmapi.Thread) {
			// Writer: long txn writing x; commits around t=5000.
			th.Atomic(func(tx tmapi.Txn) {
				tx.Store(x, 1)
				th.Work(5000)
			})
		}, func(th tmapi.Thread) {
			// Reader: threatened read of x, quick commit, then an
			// unrelated txn on y that is live when the writer commits.
			th.Work(1000)
			th.Atomic(func(tx tmapi.Txn) { tx.Load(x) })
			th.Atomic(func(tx tmapi.Txn) {
				tx.Store(y, tx.Load(y)+1)
				th.Work(6000)
			})
		})
		return rt.Stats()
	}
	withClean := run(true)
	if withClean.Commits != 3 {
		t.Fatalf("commits = %d, want 3", withClean.Commits)
	}
	if withClean.Aborts != 0 {
		t.Fatalf("aborts = %d, want 0 (cleanWR should prevent the spurious abort)", withClean.Aborts)
	}
	withoutClean := run(false)
	if withoutClean.Aborts == 0 {
		t.Fatal("without cleanWR the stale W-R bit should spuriously abort the reader")
	}
	if withoutClean.Commits != 3 {
		t.Fatalf("without cleanWR commits = %d, want 3 (spurious abort is retried)", withoutClean.Commits)
	}
	_ = rt
}

func TestClosedNestedPartialRollback(t *testing.T) {
	sys := tmesi.New(testCfg())
	rt := New(sys, Lazy, cm.NewPolka())
	x := sys.Alloc().Alloc(1)
	y := sys.Alloc().Alloc(1)
	z := sys.Alloc().Alloc(1)
	runThreads(t, rt, func(th tmapi.Thread) {
		fth := th.(*Thread)
		th.Atomic(func(tx tmapi.Txn) {
			tx.Store(x, 1) // outer write must survive the inner abort
			first := true
			fth.ClosedNested(func(inner tmapi.Txn) {
				inner.Store(y, 99)
				inner.Store(x, 77) // overwrites the outer value, then rolls back
				if first {
					first = false
					inner.Abort()
				}
				inner.Store(y, 2)
			})
			tx.Store(z, tx.Load(x)+tx.Load(y)) // sees x=77 (retry rewrote), y=2
		})
	})
	if v := sys.ReadWordRaw(x); v != 77 {
		t.Fatalf("x = %d, want 77", v)
	}
	if v := sys.ReadWordRaw(y); v != 2 {
		t.Fatalf("y = %d, want 2", v)
	}
	if v := sys.ReadWordRaw(z); v != 79 {
		t.Fatalf("z = %d, want 79", v)
	}
	if s := rt.Stats(); s.Commits != 1 || s.Aborts != 0 {
		t.Fatalf("stats = %+v: inner abort must not abort the outer txn", s)
	}
}

func TestClosedNestedRollbackRestoresOuterValue(t *testing.T) {
	sys := tmesi.New(testCfg())
	rt := New(sys, Lazy, cm.NewPolka())
	x := sys.Alloc().Alloc(1)
	runThreads(t, rt, func(th tmapi.Thread) {
		fth := th.(*Thread)
		th.Atomic(func(tx tmapi.Txn) {
			tx.Store(x, 10)
			tries := 0
			fth.ClosedNested(func(inner tmapi.Txn) {
				tries++
				if tries == 1 {
					inner.Store(x, 20)
					inner.Abort()
				}
				// Second attempt: the outer value must be restored.
				if got := inner.Load(x); got != 10 {
					t.Errorf("inner retry sees x = %d, want outer 10", got)
				}
			})
		})
	})
	if v := sys.ReadWordRaw(x); v != 10 {
		t.Fatalf("x = %d, want 10", v)
	}
}

func TestClosedNestedOutsideTxnActsLikeAtomic(t *testing.T) {
	sys := tmesi.New(testCfg())
	rt := New(sys, Lazy, cm.NewPolka())
	x := sys.Alloc().Alloc(1)
	runThreads(t, rt, func(th tmapi.Thread) {
		th.(*Thread).ClosedNested(func(tx tmapi.Txn) { tx.Store(x, 5) })
	})
	if v := sys.ReadWordRaw(x); v != 5 {
		t.Fatalf("x = %d, want 5", v)
	}
	if s := rt.Stats(); s.Commits != 1 {
		t.Fatalf("commits = %d", s.Commits)
	}
}

func TestEscapeActionsViaThreadOps(t *testing.T) {
	// The paper's "transactional pause": ordinary loads/stores inside a
	// transaction bypass transactional semantics. Thread.Load/Store are
	// exactly that; a paused write survives even if the transaction aborts.
	sys := tmesi.New(testCfg())
	rt := New(sys, Lazy, cm.NewPolka())
	x := sys.Alloc().Alloc(1)
	logAddr := sys.Alloc().Alloc(1)
	runThreads(t, rt, func(th tmapi.Thread) {
		first := true
		th.Atomic(func(tx tmapi.Txn) {
			tx.Store(x, 1)
			th.Store(logAddr, th.Load(logAddr)+1) // paused: non-transactional
			if first {
				first = false
				tx.Abort()
			}
		})
	})
	if v := sys.ReadWordRaw(logAddr); v != 2 {
		t.Fatalf("paused log counter = %d, want 2 (one per attempt)", v)
	}
	if v := sys.ReadWordRaw(x); v != 1 {
		t.Fatalf("x = %d, want 1", v)
	}
}

// TestTracerRecordsLifecycle: the flight recorder is the runtime's
// lifecycle stream — every begin, commit and abort lands in it, and the
// trace summary folded from it matches the runtime's own accounting.
func TestTracerRecordsLifecycle(t *testing.T) {
	sys := tmesi.New(testCfg())
	fr := flight.New(testCfg().Cores, 1<<12)
	sys.SetFlight(fr)
	rt := New(sys, Eager, cm.NewPolka())
	x := sys.Alloc().Alloc(1)
	bodies := make([]func(tmapi.Thread), 4)
	for i := range bodies {
		bodies[i] = func(th tmapi.Thread) {
			for j := 0; j < 10; j++ {
				th.Atomic(func(tx tmapi.Txn) {
					tx.Store(x, tx.Load(x)+1)
				})
			}
		}
	}
	runThreads(t, rt, bodies...)
	if n := fr.Overwritten(); n != 0 {
		t.Fatalf("%d records lost to wrap-around", n)
	}
	recs := fr.Snapshot()
	kinds := map[flight.Kind]uint64{}
	for _, r := range recs {
		kinds[r.Kind]++
	}
	st := rt.Stats()
	if kinds[flight.TxnCommit] != 40 || kinds[flight.TxnAbort] != st.Aborts ||
		kinds[flight.TxnBegin] != 40+st.Aborts {
		t.Fatalf("flight lifecycle records %v, want 40 commits, %d aborts, %d begins",
			kinds, st.Aborts, 40+st.Aborts)
	}
	s := causal.Analyze(recs, causal.Options{}).Summary(recs)
	if s.Commits != 40 {
		t.Fatalf("traced commits = %d, want 40", s.Commits)
	}
	if uint64(s.Aborts) != st.Aborts {
		t.Fatalf("traced aborts %d != runtime aborts %d", s.Aborts, st.Aborts)
	}
	if len(s.AttemptCycles) == 0 || s.Percentile(50) == 0 {
		t.Fatal("no attempt latency samples recorded")
	}
}

func TestSigScreenSparesInnocentSuccessor(t *testing.T) {
	// Same interleaving as the cleanWR test, but with cleanWR off and the
	// signature screen on: the writer's stale W-R bit names the reader's
	// core, yet the reader's new transaction touches a disjoint line, so
	// the screen must spare it.
	sys := tmesi.New(testCfg())
	rt := New(sys, Lazy, cm.NewPolka())
	rt.SetCleanWR(false)
	x := sys.Alloc().Alloc(1)
	y := sys.Alloc().Alloc(1)
	runThreads(t, rt, func(th tmapi.Thread) {
		th.Atomic(func(tx tmapi.Txn) {
			tx.Store(x, 1)
			th.Work(5000)
		})
	}, func(th tmapi.Thread) {
		th.Work(1000)
		th.Atomic(func(tx tmapi.Txn) { tx.Load(x) })
		th.Atomic(func(tx tmapi.Txn) {
			tx.Store(y, tx.Load(y)+1)
			th.Work(6000)
		})
	})
	s := rt.Stats()
	if s.Commits != 3 || s.Aborts != 0 {
		t.Fatalf("stats = %+v, want 3 commits / 0 aborts (screen spares the successor)", s)
	}
}
