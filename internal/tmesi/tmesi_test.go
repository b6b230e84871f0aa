package tmesi

import (
	"testing"

	"flextm/internal/cache"
	"flextm/internal/cst"
	"flextm/internal/memory"
	"flextm/internal/sim"
)

// smallCfg shrinks the caches so eviction/overflow paths are exercised.
func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.Cores = 4
	cfg.L1 = cache.Config{Sets: 4, Ways: 2, VictimSize: 2}
	cfg.L2Sets = 64
	cfg.L2Ways = 4
	cfg.OTSets = 8
	cfg.OTWays = 2
	return cfg
}

// run executes one scripted thread per function against a fresh system.
func run(t *testing.T, cfg Config, scripts ...func(ctx *sim.Ctx, s *System)) *System {
	t.Helper()
	s := New(cfg)
	e := sim.NewEngine()
	for i, f := range scripts {
		f := f
		e.Spawn("core", 0, func(ctx *sim.Ctx) { f(ctx, s) })
		_ = i
	}
	if blocked := e.Run(); blocked != 0 {
		t.Fatalf("%d threads left blocked", blocked)
	}
	return s
}

func TestStoreLoadSameCore(t *testing.T) {
	s := run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.Store(ctx, 0, 100, 7)
		if v := s.Load(ctx, 0, 100).Val; v != 7 {
			t.Errorf("Load = %d, want 7", v)
		}
	})
	st := s.Stats()
	if st.L1Hits == 0 {
		t.Error("second access should hit in L1")
	}
}

func TestStoreVisibleAcrossCores(t *testing.T) {
	run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.Store(ctx, 0, 100, 42) // t=~some cycles; line M in core 0
		ctx.Advance(1000)
		ctx.Sync()
		// Meanwhile core 1 reads at t=500 (before) and t>1000 (after).
	}, func(ctx *sim.Ctx, s *System) {
		ctx.Advance(500)
		if v := s.Load(ctx, 1, 100).Val; v != 42 {
			t.Errorf("core1 Load = %d, want 42 (M line must be flushed on probe)", v)
		}
	})
}

func TestLoadLatencyModel(t *testing.T) {
	cfg := smallCfg()
	run(t, cfg, func(ctx *sim.Ctx, s *System) {
		t0 := ctx.Now()
		s.Load(ctx, 0, 100) // cold: L1 miss, L2 miss -> memory
		coldLat := ctx.Now() - t0
		t1 := ctx.Now()
		s.Load(ctx, 0, 100) // hit
		hitLat := ctx.Now() - t1
		if hitLat != cfg.L1Hit {
			t.Errorf("hit latency = %d, want %d", hitLat, cfg.L1Hit)
		}
		if coldLat < cfg.MemLat {
			t.Errorf("cold latency = %d, want >= %d (memory)", coldLat, cfg.MemLat)
		}
	})
}

func TestTStoreIsolation(t *testing.T) {
	run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.Store(ctx, 0, 200, 1) // committed value 1
		s.BeginTxn(0)
		s.TStore(ctx, 0, 200, 99)
		if v := s.TLoad(ctx, 0, 200).Val; v != 99 {
			t.Errorf("own TLoad = %d, want speculative 99", v)
		}
		ctx.Advance(2000)
		ctx.Sync()
	}, func(ctx *sim.Ctx, s *System) {
		ctx.Advance(1000) // after core0's TStore, before any commit
		if v := s.Load(ctx, 1, 200).Val; v != 1 {
			t.Errorf("remote ordinary Load = %d, want committed 1", v)
		}
		s.BeginTxn(1)
		res := s.TLoad(ctx, 1, 200)
		if res.Val != 1 {
			t.Errorf("remote TLoad = %d, want committed 1", res.Val)
		}
		if len(res.Conflicts) != 1 || res.Conflicts[0].Msg != Threatened || res.Conflicts[0].Responder != 0 {
			t.Errorf("TLoad conflicts = %+v, want Threatened by core 0", res.Conflicts)
		}
		if st := s.LineState(1, memory.Addr(200).Line()); st != cache.TI {
			t.Errorf("threatened TLoad cached in %v, want TI", st)
		}
	})
}

func TestThreatenedOrdinaryLoadUncached(t *testing.T) {
	run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.BeginTxn(0)
		s.TStore(ctx, 0, 200, 99)
		ctx.Advance(2000)
		ctx.Sync()
	}, func(ctx *sim.Ctx, s *System) {
		ctx.Advance(1000)
		s.Load(ctx, 1, 200)
		if st := s.LineState(1, memory.Addr(200).Line()); st != cache.Invalid {
			t.Errorf("threatened ordinary load cached the line in %v", st)
		}
	})
}

func TestCSTUpdatesOnConflicts(t *testing.T) {
	s := run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.BeginTxn(0)
		s.TStore(ctx, 0, 300, 5) // W(0)
		ctx.Advance(5000)
		ctx.Sync()
	}, func(ctx *sim.Ctx, s *System) {
		ctx.Advance(1000)
		s.BeginTxn(1)
		s.TLoad(ctx, 1, 300)     // R(1) vs W(0): 1.R-W={0}, 0.W-R={1}
		s.TStore(ctx, 1, 301, 6) // same line! W(1) vs W(0): W-W both
	})
	if !s.CST(1).Has(cst.RW, 0) {
		t.Error("core1 R-W missing core0")
	}
	if !s.CST(0).Has(cst.WR, 1) {
		t.Error("core0 W-R missing core1")
	}
	if !s.CST(1).Has(cst.WW, 0) || !s.CST(0).Has(cst.WW, 1) {
		t.Error("W-W bits not set on both sides")
	}
}

func TestExposedReadConflict(t *testing.T) {
	s := run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.BeginTxn(0)
		s.TLoad(ctx, 0, 400) // R(0)
		ctx.Advance(5000)
		ctx.Sync()
	}, func(ctx *sim.Ctx, s *System) {
		ctx.Advance(1000)
		s.BeginTxn(1)
		res := s.TStore(ctx, 1, 400, 9) // W(1) vs R(0)
		found := false
		for _, c := range res.Conflicts {
			if c.Msg == ExposedRead && c.Responder == 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("TStore conflicts = %+v, want Exposed-Read from core 0", res.Conflicts)
		}
	})
	if !s.CST(1).Has(cst.WR, 0) || !s.CST(0).Has(cst.RW, 1) {
		t.Error("CSTs after exposed read wrong")
	}
}

func TestCommitPublishesSpeculativeState(t *testing.T) {
	const tsw = memory.Addr(8) // runtime metadata region
	run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.Store(ctx, 0, tsw, 1) // TSW = active
		s.BeginTxn(0)
		s.TStore(ctx, 0, 500, 77)
		if out := s.CASCommit(ctx, 0, tsw, 1, 2); out != CommitOK {
			t.Fatalf("CASCommit = %v, want OK", out)
		}
		if st := s.LineState(0, memory.Addr(500).Line()); st != cache.Modified {
			t.Errorf("committed line state %v, want M", st)
		}
		if s.TxnActive(0) {
			t.Error("txn still active after commit")
		}
		ctx.Advance(1000)
		ctx.Sync()
	}, func(ctx *sim.Ctx, s *System) {
		ctx.Advance(2000)
		if v := s.Load(ctx, 1, 500).Val; v != 77 {
			t.Errorf("remote load after commit = %d, want 77", v)
		}
	})
}

func TestCommitFailsWithEnemies(t *testing.T) {
	const tsw = memory.Addr(8)
	run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.Store(ctx, 0, tsw, 1)
		s.BeginTxn(0)
		s.TStore(ctx, 0, 500, 77)
		s.CST(0).Set(cst.WW, 1) // pretend core1 conflicted
		if out := s.CASCommit(ctx, 0, tsw, 1, 2); out != CommitCSTFail {
			t.Fatalf("CASCommit = %v, want CSTFail", out)
		}
		if !s.TxnActive(0) {
			t.Error("CST failure must not end the transaction")
		}
		// Software resolves the conflict (Figure 3 lines 1-3) and retries.
		s.CST(0).Get(cst.WW).CopyAndClear()
		if out := s.CASCommit(ctx, 0, tsw, 1, 2); out != CommitOK {
			t.Fatalf("retry CASCommit = %v, want OK", out)
		}
	})
}

func TestCommitAbortedWhenTSWChanged(t *testing.T) {
	const tsw = memory.Addr(8)
	run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.Store(ctx, 0, tsw, 1)
		s.BeginTxn(0)
		s.TStore(ctx, 0, 500, 77)
		s.ForceWord(tsw, 3) // enemy aborted us
		if out := s.CASCommit(ctx, 0, tsw, 1, 2); out != CommitAborted {
			t.Fatalf("CASCommit = %v, want Aborted", out)
		}
		if v := s.Load(ctx, 0, 500).Val; v != 0 {
			t.Errorf("speculative value survived abort: %d", v)
		}
	})
}

func TestAbortFlashDiscards(t *testing.T) {
	run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.Store(ctx, 0, 600, 10)
		s.BeginTxn(0)
		s.TStore(ctx, 0, 600, 20)
		s.AbortFlash(ctx, 0)
		if v := s.Load(ctx, 0, 600).Val; v != 10 {
			t.Errorf("value after abort = %d, want committed 10", v)
		}
		if !s.Wsig(0).Empty() || !s.Rsig(0).Empty() {
			t.Error("signatures not cleared by abort")
		}
	})
}

func TestAOUAlertOnRemoteWrite(t *testing.T) {
	run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.ALoad(ctx, 0, 700)
		ctx.Advance(5000)
		ctx.Sync()
		if _, ok := s.TakeAlert(0); !ok {
			t.Error("no alert after remote write to ALoaded line")
		}
	}, func(ctx *sim.Ctx, s *System) {
		ctx.Advance(1000)
		s.Store(ctx, 1, 700, 1)
	})
}

func TestAOUNoAlertWithoutConflict(t *testing.T) {
	run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.ALoad(ctx, 0, 700)
		ctx.Advance(5000)
		ctx.Sync()
		if _, ok := s.TakeAlert(0); ok {
			t.Error("spurious alert")
		}
	}, func(ctx *sim.Ctx, s *System) {
		ctx.Advance(1000)
		s.Load(ctx, 1, 700) // reads don't alert
	})
}

func TestAClearSuppressesAlert(t *testing.T) {
	run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.ALoad(ctx, 0, 700)
		s.AClear(0, 700)
		ctx.Advance(5000)
		ctx.Sync()
		if _, ok := s.TakeAlert(0); ok {
			t.Error("alert fired after AClear")
		}
	}, func(ctx *sim.Ctx, s *System) {
		ctx.Advance(1000)
		s.Store(ctx, 1, 700, 1)
	})
}

func TestStrongIsolationAbortsConflictingTxn(t *testing.T) {
	var victims []int
	s := New(smallCfg())
	s.SetStrongIsolationHook(func(v int) { victims = append(victims, v) })
	e := sim.NewEngine()
	e.Spawn("txn", 0, func(ctx *sim.Ctx) {
		s.BeginTxn(0)
		s.TLoad(ctx, 0, 800)
		ctx.Advance(5000)
		ctx.Sync()
	})
	e.Spawn("plain", 0, func(ctx *sim.Ctx) {
		ctx.Advance(1000)
		s.Store(ctx, 1, 800, 5)
	})
	e.Run()
	if len(victims) != 1 || victims[0] != 0 {
		t.Fatalf("victims = %v, want [0]", victims)
	}
	if s.Stats().StrongIsolationAborts != 1 {
		t.Fatalf("StrongIsolationAborts = %d", s.Stats().StrongIsolationAborts)
	}
}

func TestOverflowSpillAndFetchBack(t *testing.T) {
	cfg := smallCfg()
	s := run(t, cfg, func(ctx *sim.Ctx, s *System) {
		s.BeginTxn(0)
		// 4 sets x 2 ways + 2 victim entries = 10 lines capacity; write 20.
		for i := 0; i < 20; i++ {
			a := memory.Addr(10000 + i*memory.LineWords)
			s.TStore(ctx, 0, a, uint64(i))
		}
		// Every speculative value must still be readable.
		for i := 0; i < 20; i++ {
			a := memory.Addr(10000 + i*memory.LineWords)
			if v := s.TLoad(ctx, 0, a).Val; v != uint64(i) {
				t.Errorf("TLoad(%d) = %d after overflow, want %d", i, v, i)
			}
		}
	})
	if s.Stats().Overflows == 0 || s.Stats().OTFetches == 0 || s.Stats().OTAllocs != 1 {
		t.Fatalf("overflow stats = %+v", s.Stats())
	}
}

func TestOverflowCommitPublishesAll(t *testing.T) {
	const tsw = memory.Addr(8)
	s := run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.Store(ctx, 0, tsw, 1)
		s.BeginTxn(0)
		for i := 0; i < 20; i++ {
			s.TStore(ctx, 0, memory.Addr(10000+i*memory.LineWords), uint64(i+1))
		}
		if out := s.CASCommit(ctx, 0, tsw, 1, 2); out != CommitOK {
			t.Fatalf("CASCommit = %v", out)
		}
	})
	for i := 0; i < 20; i++ {
		a := memory.Addr(10000 + i*memory.LineWords)
		if v := s.Image().ReadWord(a); v != uint64(i+1) {
			// Lines still cached M are fine too; check coherent view.
			if v2 := s.ReadWordRaw(a); v2 != uint64(i+1) {
				t.Fatalf("word %d = %d after commit, want %d", i, v2, i+1)
			}
		}
	}
}

func TestOverflowAbortDiscardsAll(t *testing.T) {
	s := run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.BeginTxn(0)
		for i := 0; i < 20; i++ {
			s.TStore(ctx, 0, memory.Addr(10000+i*memory.LineWords), 99)
		}
		s.AbortFlash(ctx, 0)
	})
	for i := 0; i < 20; i++ {
		if v := s.ReadWordRaw(memory.Addr(10000 + i*memory.LineWords)); v != 0 {
			t.Fatalf("speculative word %d leaked: %d", i, v)
		}
	}
	if ot := s.OT(0); ot != nil && ot.Count() != 0 {
		t.Fatal("OT not discarded on abort")
	}
}

func TestMultipleOwnersBothBuffer(t *testing.T) {
	s := run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.BeginTxn(0)
		s.TStore(ctx, 0, 900, 10)
		ctx.Advance(5000)
		ctx.Sync()
		if v := s.TLoad(ctx, 0, 900).Val; v != 10 {
			t.Errorf("core0 speculative value = %d, want 10", v)
		}
	}, func(ctx *sim.Ctx, s *System) {
		ctx.Advance(1000)
		s.BeginTxn(1)
		s.TStore(ctx, 1, 900, 20)
		if v := s.TLoad(ctx, 1, 900).Val; v != 20 {
			t.Errorf("core1 speculative value = %d, want 20", v)
		}
	})
	if s.LineState(0, memory.Addr(900).Line()) != cache.TMI {
		t.Error("core0 lost its TMI copy")
	}
	if s.LineState(1, memory.Addr(900).Line()) != cache.TMI {
		t.Error("core1 did not get a TMI copy")
	}
	if s.ReadWordRaw(900) != 0 {
		t.Error("speculative value leaked to committed state")
	}
}

func TestSummarySignatureTrap(t *testing.T) {
	cfg := smallCfg()
	s := New(cfg)
	ws := s.Wsig(0).Clone() // stand-in: empty then insert line
	ws.Insert(memory.Addr(1000).Line())
	var trapped []memory.LineAddr
	s.InstallSummary(nil, ws, func(req int, line memory.LineAddr, write bool) []Conflict {
		trapped = append(trapped, line)
		return []Conflict{{Responder: 3, Msg: Threatened, Suspended: true}}
	})
	e := sim.NewEngine()
	e.Spawn("t", 0, func(ctx *sim.Ctx) {
		s.BeginTxn(0)
		res := s.TLoad(ctx, 0, 1000)
		if len(res.Conflicts) == 0 || !res.Conflicts[0].Suspended {
			t.Errorf("conflicts = %+v, want suspended conflict", res.Conflicts)
		}
		if st := s.LineState(0, memory.Addr(1000).Line()); st != cache.TI {
			t.Errorf("line state %v, want TI (threatened by suspended txn)", st)
		}
	})
	e.Run()
	if len(trapped) != 1 || trapped[0] != memory.Addr(1000).Line() {
		t.Fatalf("trapped = %v", trapped)
	}
	if s.Stats().SummaryTraps != 1 {
		t.Fatalf("SummaryTraps = %d", s.Stats().SummaryTraps)
	}
}

func TestSaveRestoreTxnState(t *testing.T) {
	const tsw = memory.Addr(8)
	run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.Store(ctx, 0, tsw, 1)
		s.BeginTxn(0)
		s.TStore(ctx, 0, 1100, 55)
		s.CST(0).Set(cst.RW, 2)
		saved := s.SaveTxnState(ctx, 0)
		if s.TxnActive(0) || !s.Wsig(0).Empty() {
			t.Error("core not clean after save")
		}
		if s.ReadWordRaw(1100) != 0 {
			t.Error("speculative state leaked during save")
		}
		s.RestoreTxnState(ctx, 0, saved)
		if !s.TxnActive(0) || !s.CST(0).Has(cst.RW, 2) {
			t.Error("restore lost CST/mode")
		}
		if v := s.TLoad(ctx, 0, 1100).Val; v != 55 {
			t.Errorf("TLoad after restore = %d, want 55 (from OT)", v)
		}
		if out := s.CASCommit(ctx, 0, tsw, 1, 2); out != CommitOK {
			t.Fatalf("CASCommit after restore = %v", out)
		}
		if s.ReadWordRaw(1100) != 55 {
			t.Error("restored txn's commit lost data")
		}
	})
}

func TestDrainWindowStallsPeers(t *testing.T) {
	const tsw = memory.Addr(8)
	cfg := smallCfg()
	cfg.DrainPerLine = 100
	var commitDone sim.Time
	run(t, cfg, func(ctx *sim.Ctx, s *System) {
		s.Store(ctx, 0, tsw, 1)
		s.BeginTxn(0)
		for i := 0; i < 20; i++ {
			s.TStore(ctx, 0, memory.Addr(10000+i*memory.LineWords), 1)
		}
		s.CASCommit(ctx, 0, tsw, 1, 2)
		commitDone = ctx.Now()
	}, func(ctx *sim.Ctx, s *System) {
		ctx.Advance(100000)
		ctx.Sync()
		// Well after commit: no stall.
		t0 := ctx.Now()
		s.Load(ctx, 1, 10000)
		if lat := ctx.Now() - t0; lat > 1000 {
			t.Errorf("late access stalled %d cycles", lat)
		}
		_ = commitDone
	})
}

func TestWatchHitOnActivatedSignature(t *testing.T) {
	run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.WatchInsert(0, 1200, true)  // write watch
		s.WatchInsert(0, 1300, false) // read watch
		s.SetSigWatch(0, true)
		if !s.Store(ctx, 0, 1200, 1).WatchHit {
			t.Error("watched store did not hit")
		}
		if s.Load(ctx, 0, 1200).WatchHit {
			t.Error("load hit a write-only watch")
		}
		if !s.Load(ctx, 0, 1300).WatchHit {
			t.Error("watched load did not hit")
		}
		if s.Load(ctx, 0, 5000).WatchHit {
			t.Error("unwatched load hit")
		}
		s.SetSigWatch(0, false)
		if s.Store(ctx, 0, 1200, 2).WatchHit {
			t.Error("hit after deactivation")
		}
		s.ClearSigs(0)
		s.SetSigWatch(0, true)
		if s.Store(ctx, 0, 1200, 3).WatchHit {
			t.Error("hit after clear")
		}
	})
}

func TestCASSemantics(t *testing.T) {
	run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.Store(ctx, 0, 1300, 5)
		if _, ok := s.CAS(ctx, 0, 1300, 4, 9); ok {
			t.Error("CAS succeeded with wrong expected value")
		}
		res, ok := s.CAS(ctx, 0, 1300, 5, 9)
		if !ok || res.Val != 5 {
			t.Errorf("CAS failed: ok=%v val=%d", ok, res.Val)
		}
		if v := s.Load(ctx, 0, 1300).Val; v != 9 {
			t.Errorf("value after CAS = %d, want 9", v)
		}
	})
}

func TestFetchAdd(t *testing.T) {
	run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.Store(ctx, 0, 1400, 10)
		if old := s.FetchAdd(ctx, 0, 1400, 5); old != 10 {
			t.Errorf("FetchAdd returned %d, want 10", old)
		}
		if v := s.Load(ctx, 0, 1400).Val; v != 15 {
			t.Errorf("value = %d, want 15", v)
		}
	})
}

func TestExclusiveThenSharedStates(t *testing.T) {
	run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.Load(ctx, 0, 1500)
		if st := s.LineState(0, memory.Addr(1500).Line()); st != cache.Exclusive {
			t.Errorf("sole reader state %v, want E", st)
		}
		ctx.Advance(2000)
		ctx.Sync()
		if st := s.LineState(0, memory.Addr(1500).Line()); st != cache.Shared {
			t.Errorf("after remote read state %v, want S", st)
		}
	}, func(ctx *sim.Ctx, s *System) {
		ctx.Advance(1000)
		s.Load(ctx, 1, 1500)
		if st := s.LineState(1, memory.Addr(1500).Line()); st != cache.Shared {
			t.Errorf("second reader state %v, want S", st)
		}
	})
}

func TestSilentEagerUpgradeFromMWritesBack(t *testing.T) {
	run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.Store(ctx, 0, 1600, 33) // M
		s.BeginTxn(0)
		s.TStore(ctx, 0, 1600, 44) // first TStore to M line: writeback
		// The committed image must hold the latest non-speculative value so
		// remote Loads during the transaction see 33.
		if v := s.Image().ReadWord(1600); v != 33 {
			t.Errorf("image = %d, want 33 after M->TMI writeback", v)
		}
	})
}

func TestDeterministicStats(t *testing.T) {
	mk := func() Stats {
		s := run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
			s.BeginTxn(0)
			for i := 0; i < 50; i++ {
				s.TStore(ctx, 0, memory.Addr(2000+i*8), uint64(i))
				s.TLoad(ctx, 0, memory.Addr(2000+((i*37)%50)*8))
			}
			s.AbortFlash(ctx, 0)
		}, func(ctx *sim.Ctx, s *System) {
			for i := 0; i < 50; i++ {
				s.Load(ctx, 1, memory.Addr(2000+i*16))
			}
		})
		return s.Stats()
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatalf("stats differ across identical runs:\n%+v\n%+v", a, b)
	}
}

// TestNewAllocationGuard bounds what building the paper's machine costs.
// Every sweep cell builds one; its 16,384-set L2 is filled in on first
// touch, so construction should not allocate per L2 set.
func TestNewAllocationGuard(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { New(DefaultConfig()) }); n > 200 {
		t.Fatalf("New(DefaultConfig()): %v allocs, want <= 200", n)
	}
}

var newSink *System

func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		newSink = New(DefaultConfig())
	}
}
