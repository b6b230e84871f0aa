package baselines

import (
	"testing"

	"flextm/internal/baselines/bulk"
	"flextm/internal/baselines/cgl"
	"flextm/internal/baselines/rstm"
	"flextm/internal/baselines/rtmf"
	"flextm/internal/baselines/tl2"
	"flextm/internal/cm"
	"flextm/internal/core"
	"flextm/internal/memory"
	"flextm/internal/sim"
	"flextm/internal/tmapi"
	"flextm/internal/tmesi"
)

// systems returns one of every runtime over a fresh machine.
func systems() map[string]func() (tmapi.Runtime, *tmesi.System) {
	cfg := tmesi.DefaultConfig()
	cfg.Cores = 8
	return map[string]func() (tmapi.Runtime, *tmesi.System){
		"CGL": func() (tmapi.Runtime, *tmesi.System) {
			sys := tmesi.New(cfg)
			return cgl.New(sys), sys
		},
		"TL2": func() (tmapi.Runtime, *tmesi.System) {
			sys := tmesi.New(cfg)
			return tl2.New(sys), sys
		},
		"RSTM": func() (tmapi.Runtime, *tmesi.System) {
			sys := tmesi.New(cfg)
			return rstm.New(sys), sys
		},
		"RTM-F": func() (tmapi.Runtime, *tmesi.System) {
			sys := tmesi.New(cfg)
			return rtmf.New(sys), sys
		},
		"FlexTM-Lazy": func() (tmapi.Runtime, *tmesi.System) {
			sys := tmesi.New(cfg)
			return core.New(sys, core.Lazy, cm.NewPolka()), sys
		},
		"Bulk": func() (tmapi.Runtime, *tmesi.System) {
			sys := tmesi.New(cfg)
			return bulk.New(sys), sys
		},
	}
}

func runAll(t *testing.T, rt tmapi.Runtime, bodies ...func(th tmapi.Thread)) {
	t.Helper()
	e := sim.NewEngine()
	for i, b := range bodies {
		core, body := i, b
		e.Spawn("w", 0, func(ctx *sim.Ctx) { body(rt.Bind(ctx, core)) })
	}
	if blocked := e.Run(); blocked != 0 {
		t.Fatalf("%s: %d threads blocked", rt.Name(), blocked)
	}
}

func TestCounterSerializesOnEverySystem(t *testing.T) {
	const threads, incs = 6, 25
	for name, mk := range systems() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			rt, sys := mk()
			x := sys.Alloc().Alloc(1)
			bodies := make([]func(tmapi.Thread), threads)
			for i := range bodies {
				bodies[i] = func(th tmapi.Thread) {
					for j := 0; j < incs; j++ {
						th.Atomic(func(tx tmapi.Txn) {
							tx.Store(x, tx.Load(x)+1)
						})
						th.Work(100)
					}
				}
			}
			runAll(t, rt, bodies...)
			if v := sys.ReadWordRaw(x); v != threads*incs {
				t.Fatalf("counter = %d, want %d", v, threads*incs)
			}
			if s := rt.Stats(); s.Commits != threads*incs {
				t.Fatalf("commits = %d, want %d", s.Commits, threads*incs)
			}
		})
	}
}

func TestBankInvariantOnEverySystem(t *testing.T) {
	const accounts, threads, transfers, initial = 12, 5, 20, 500
	for name, mk := range systems() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			rt, sys := mk()
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
						amt := uint64(r.Intn(20))
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
			runAll(t, rt, bodies...)
			var total uint64
			for i := 0; i < accounts; i++ {
				total += sys.ReadWordRaw(acct(i))
			}
			if total != accounts*initial {
				t.Fatalf("total = %d, want %d", total, accounts*initial)
			}
		})
	}
}

func TestReadOnlyTxnsAreCheapOnTL2(t *testing.T) {
	cfg := tmesi.DefaultConfig()
	cfg.Cores = 2
	sys := tmesi.New(cfg)
	rt := tl2.New(sys)
	x := sys.Alloc().Alloc(1)
	var roCycles, rwCycles sim.Time
	runAll(t, rt, func(th tmapi.Thread) {
		th.Atomic(func(tx tmapi.Txn) { tx.Load(x) }) // warm
		t0 := th.Ctx().Now()
		th.Atomic(func(tx tmapi.Txn) { tx.Load(x) })
		roCycles = th.Ctx().Now() - t0
		t1 := th.Ctx().Now()
		th.Atomic(func(tx tmapi.Txn) { tx.Store(x, tx.Load(x)) })
		rwCycles = th.Ctx().Now() - t1
	})
	if roCycles >= rwCycles {
		t.Fatalf("read-only txn (%d cy) not cheaper than read-write (%d cy)", roCycles, rwCycles)
	}
}

func TestRSTMValidationCostGrowsWithReadSet(t *testing.T) {
	cfg := tmesi.DefaultConfig()
	cfg.Cores = 2
	sys := tmesi.New(cfg)
	rt := rstm.New(sys)
	base := sys.Alloc().Alloc(128 * memory.LineWords)
	measure := func(n int) sim.Time {
		var cost sim.Time
		runAll(t, rt, func(th tmapi.Thread) {
			// warm the data
			th.Atomic(func(tx tmapi.Txn) {
				for i := 0; i < n; i++ {
					tx.Load(base + memory.Addr(i*memory.LineWords))
				}
			})
			t0 := th.Ctx().Now()
			th.Atomic(func(tx tmapi.Txn) {
				for i := 0; i < n; i++ {
					tx.Load(base + memory.Addr(i*memory.LineWords))
				}
			})
			cost = th.Ctx().Now() - t0
		})
		return cost
	}
	c8, c96 := measure(8), measure(96)
	// Quadratic validation: per-read cost must grow with the read set.
	if float64(c96)/96 < 1.5*float64(c8)/8 {
		t.Fatalf("per-read cost did not grow superlinearly: %d cy / 8 reads vs %d cy / 96 reads", c8, c96)
	}
}

func TestRTMFUsesPDINotClones(t *testing.T) {
	cfg := tmesi.DefaultConfig()
	cfg.Cores = 2
	sys := tmesi.New(cfg)
	rt := rtmf.New(sys)
	x := sys.Alloc().Alloc(1)
	runAll(t, rt, func(th tmapi.Thread) {
		th.Atomic(func(tx tmapi.Txn) { tx.Store(x, 5) })
	})
	if sys.Stats().TStores == 0 {
		t.Fatal("RTM-F writes did not go through PDI TStores")
	}
	if v := sys.ReadWordRaw(x); v != 5 {
		t.Fatalf("x = %d, want 5", v)
	}
}

func TestCGLAbortPanics(t *testing.T) {
	cfg := tmesi.DefaultConfig()
	cfg.Cores = 1
	sys := tmesi.New(cfg)
	rt := cgl.New(sys)
	e := sim.NewEngine()
	e.Spawn("w", 0, func(ctx *sim.Ctx) {
		th := rt.Bind(ctx, 0)
		defer func() {
			if recover() == nil {
				t.Error("CGL Abort did not panic")
			}
		}()
		th.Atomic(func(tx tmapi.Txn) { tx.Abort() })
	})
	e.Run()
}
