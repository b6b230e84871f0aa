package tmesi

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"flextm/internal/cache"
	"flextm/internal/cst"
	"flextm/internal/fault"
	"flextm/internal/flight"
	"flextm/internal/memory"
	"flextm/internal/signature"
	"flextm/internal/sim"
	"flextm/internal/telemetry"
)

// each calls f with every holder index entry, in slot order.
func (h *holderIndex) each(f func(line memory.LineAddr, mask uint64)) {
	for _, sl := range h.slots {
		if sl.mask != 0 {
			f(sl.line, sl.mask)
		}
	}
}

// checkHolders asserts the holder index invariant: every valid L1 copy has
// its core's bit set, every entry is reachable (empty slots mark absence,
// so no entry is zero), and the index never outgrows the L1s.
func checkHolders(t *testing.T, s *System, when string) {
	t.Helper()
	for r := range s.cores {
		s.cores[r].l1.EachValid(func(ln cache.Line) {
			if s.holders.get(ln.Tag)&coreBit(r) == 0 {
				t.Fatalf("%s: core %d holds line %d in %v, holder mask %#x lacks it",
					when, r, ln.Tag, ln.State, s.holders.get(ln.Tag))
			}
		})
	}
	n := 0
	s.holders.each(func(line memory.LineAddr, mask uint64) {
		if s.holders.get(line) != mask {
			t.Fatalf("%s: line %d listed with mask %#x, found with %#x", when, line, mask, s.holders.get(line))
		}
		n++
	})
	l1 := s.cfg.L1
	if limit := len(s.cores) * (l1.Sets*l1.Ways + l1.VictimSize); n != s.holders.n || n > limit {
		t.Fatalf("%s: %d holder entries (count %d), limit %d: the lines the L1s can hold", when, n, s.holders.n, limit)
	}
}

// lineObs is one valid L1 line as the differential test compares it.
type lineObs struct {
	State cache.State
	Alert bool
	Data  memory.LineData
}

// holderObs is everything one op of the differential stream observed.
type holderObs struct {
	Op      string
	Res     OpResult
	Flag    bool
	Commit  CommitOutcome
	Now     sim.Time
	Stats   Stats
	CSTs    []cst.Table
	Active  uint64
	Pending []bool
	Lines   []map[memory.LineAddr]lineObs
	// The census parts a broadcast must agree on: it visits and looks up
	// more, but the rounds and the signature-only answers are the same.
	Rounds, NonHolder, NonHolderAlias uint64
}

// holderStream is one run of the differential test's random op stream.
type holderStream struct {
	obs    []holderObs
	flight []flight.Rec
	tel    telemetry.Snapshot
	sys    *System
}

// runHolderStream drives a seeded random multi-core op stream through a
// fresh system, in the holder-indexed mode or (broadcast) the full-broadcast
// reference, and records what every op observed. With check set it asserts
// the holder invariant after every op. The stream covers transactional and
// ordinary ops, CAS-Commit and aborts, a strong-isolation hook that calls
// ForceWord on the victim's status word (placed in data lines, so it can
// hit an upgrading requester's own copy), a summary hook that does the same,
// injected Bloom aliasing, coherence delays and lost alerts, victim and
// overflow-table spills and fetches, deschedule and reschedule, page remaps,
// and a live signature widen.
func runHolderStream(t *testing.T, seed int64, broadcast, check bool) holderStream {
	t.Helper()
	const (
		cores    = 6
		hot      = 16
		universe = 96 // lines; more than the 6*(4*2+2) = 60 copies the L1s hold
		ops      = 2500
	)
	cfg := smallCfg()
	cfg.Cores = cores
	s := New(cfg)
	s.broadcast = broadcast
	s.SetTelemetry(telemetry.New(cores))
	s.SetFlight(flight.New(cores, 1<<14))
	fc := fault.Config{Seed: uint64(seed)}
	fc.Rates[fault.SigFalsePos] = 0.05
	fc.Rates[fault.CoherenceDelay] = 0.1
	fc.Rates[fault.AlertLoss] = 0.3
	fc.Rates[fault.OTStall] = 0.1
	fc.Rates[fault.SpuriousAlert] = 0.02
	s.SetFaultInjector(fault.NewInjector(fc))

	// Status words share lines with data, so the strong-isolation hook's
	// ForceWord lands on lines other cores are upgrading.
	tsw := make([]memory.Addr, cores)
	for c := range tsw {
		tsw[c] = memory.LineAddr(c % 8).WordOf(7)
	}
	s.SetStrongIsolationHook(func(v int) {
		if s.TxnActive(v) {
			s.ForceWord(tsw[v], 3)
		}
	})

	rng := rand.New(rand.NewSource(seed))
	addr := func() memory.Addr {
		l := rng.Intn(universe)
		if rng.Intn(10) < 7 {
			l = rng.Intn(hot)
		}
		return memory.LineAddr(l).WordOf(rng.Intn(memory.LineWords))
	}
	saved := make([]*SavedTxn, cores)
	var out holderStream
	out.sys = s
	e := sim.NewEngine()
	e.Spawn("stream", 0, func(ctx *sim.Ctx) {
		for i := 0; i < ops; i++ {
			switch i {
			case ops / 4:
				rs, ws := signature.New(cfg.Sig), signature.New(cfg.Sig)
				for l := 0; l < hot; l += 5 {
					rs.Insert(memory.LineAddr(l))
					ws.Insert(memory.LineAddr(l + 2))
				}
				s.InstallSummary(rs, ws, func(req int, line memory.LineAddr, write bool) []Conflict {
					if line%2 == 0 {
						// Abort a descheduled transaction whose status word
						// shares the line, as the OS trap handler does; a
						// TStore upgrade's own copy is invalidated mid-probe.
						s.ForceWord(line.WordOf(6), 4)
					}
					return []Conflict{{Responder: (req + 1) % cores, Msg: Threatened, Line: line, Suspended: true}}
				})
			case ops / 2:
				s.InstallSummary(nil, nil, nil)
			}
			c := rng.Intn(cores)
			o := holderObs{}
			p := rng.Intn(100)
			switch {
			case s.TxnActive(c) && p < 30:
				o.Op, o.Res = "TLoad", s.TLoad(ctx, c, addr())
			case s.TxnActive(c) && p < 55:
				o.Op, o.Res = "TStore", s.TStore(ctx, c, addr(), rng.Uint64()%100)
			case s.TxnActive(c) && p < 61:
				o.Op, o.Commit = "CASCommit", s.CASCommit(ctx, c, tsw[c], 1, 2)
			case s.TxnActive(c) && p < 64:
				o.Op = "AbortFlash"
				s.AbortFlash(ctx, c)
			case s.TxnActive(c) && p < 66 && saved[c] == nil:
				o.Op = "SaveTxnState"
				saved[c] = s.SaveTxnState(ctx, c)
			case !s.TxnActive(c) && saved[c] != nil && p < 20:
				o.Op = "RestoreTxnState"
				s.RestoreTxnState(ctx, c, saved[c])
				saved[c] = nil
			case !s.TxnActive(c) && p < 25:
				o.Op = "BeginTxn"
				s.Store(ctx, c, tsw[c], 1)
				s.BeginTxn(c)
			case p < 72:
				o.Op, o.Res = "Load", s.Load(ctx, c, addr())
			case p < 78:
				o.Op, o.Res = "Store", s.Store(ctx, c, addr(), rng.Uint64()%100)
			case p < 81:
				o.Op = "CAS"
				o.Res, o.Flag = s.CAS(ctx, c, addr(), 0, rng.Uint64()%100)
			case p < 83:
				o.Op = "FetchAdd"
				o.Res.Val = s.FetchAdd(ctx, c, addr(), 1)
			case p < 86:
				o.Op, o.Res = "ALoad", s.ALoad(ctx, c, addr())
			case p < 88:
				o.Op = "ForceWord"
				s.ForceWord(addr(), rng.Uint64()%100)
			case p < 92:
				o.Op = "ReadWordRaw"
				o.Res.Val = s.ReadWordRaw(addr())
			case p < 94:
				o.Op = "TakeAlert"
				var l memory.LineAddr
				l, o.Flag = s.TakeAlert(c)
				o.Res.Val = uint64(l)
			case p < 96:
				o.Op = "FlushTMIToOT+RemapLine"
				old, nw := memory.LineAddr(rng.Intn(universe)), memory.LineAddr(rng.Intn(universe))
				s.FlushTMIToOT(c, []memory.LineAddr{old})
				s.RemapLine(c, old, nw)
			case p < 97 && s.summaryR == nil && !anySaved(saved):
				o.Op = "WidenSignatures"
				g := s.cfg.Sig
				g.Bits *= 2
				if g.Bits > 8*signature.DefaultBits {
					g = signature.DefaultConfig()
				}
				o.Flag = s.WidenSignatures(g) == nil
			default:
				o.Op = "AClear"
				s.AClear(c, addr())
			}
			o.Op = fmt.Sprintf("#%d core %d %s", i, c, o.Op)
			o.Now = ctx.Now()
			o.Stats = s.Stats()
			o.Active = s.active
			for r := range s.cores {
				o.CSTs = append(o.CSTs, *s.CST(r))
				o.Pending = append(o.Pending, s.AlertPending(r))
				lines := map[memory.LineAddr]lineObs{}
				s.cores[r].l1.EachValid(func(ln cache.Line) {
					lines[ln.Tag] = lineObs{ln.State, ln.Alert, ln.Data}
				})
				o.Lines = append(o.Lines, lines)
			}
			pc := s.ProbeCensus()
			o.Rounds, o.NonHolder, o.NonHolderAlias = pc.Rounds, pc.NonHolder, pc.NonHolderAlias
			out.obs = append(out.obs, o)
			if check {
				checkHolders(t, s, o.Op)
			}
			ctx.Advance(sim.Time(rng.Intn(20)))
		}
	})
	e.Run()
	out.flight = s.Flight().Snapshot()
	out.tel = s.Telemetry().Snapshot()
	return out
}

func anySaved(saved []*SavedTxn) bool {
	for _, sv := range saved {
		if sv != nil {
			return true
		}
	}
	return false
}

// TestHolderIndexMatchesBroadcast checks the holder-indexed probe rounds,
// ReadWordRaw and ForceWord against a full broadcast, in the manner of the
// cache package's TestFlashWalksMatchFullWalk: the same random op streams
// must observe the same results, latencies, counters, CSTs, alerts, L1
// contents, flight records and telemetry, op by op.
func TestHolderIndexMatchesBroadcast(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			idx := runHolderStream(t, seed, false, true)
			ref := runHolderStream(t, seed, true, false)
			for i := range ref.obs {
				if !reflect.DeepEqual(idx.obs[i], ref.obs[i]) {
					t.Fatalf("op %s diverges from the broadcast:\nindexed   %+v\nbroadcast %+v", ref.obs[i].Op, idx.obs[i], ref.obs[i])
				}
			}
			if !reflect.DeepEqual(idx.flight, ref.flight) {
				t.Fatal("flight records diverge from the broadcast")
			}
			if !reflect.DeepEqual(idx.tel, ref.tel) {
				t.Fatal("telemetry diverges from the broadcast")
			}
			ic, rc := idx.sys.ProbeCensus(), ref.sys.ProbeCensus()
			if ic.Lookups >= rc.Lookups || rc.Lookups != rc.Rounds*uint64(len(ref.sys.cores)-1) {
				t.Fatalf("census: indexed %+v, broadcast %+v", ic, rc)
			}
			t.Logf("indexed census %+v; broadcast made %d lookups", ic, rc.Lookups)
		})
	}
}

// TestForceWordDuringUpgradeRevivesCopy pins today's behaviour on one
// path: core 0 upgrades its Shared copy of a line with a GETX, the probe
// hits core 1's transaction, and the strong-isolation hook's ForceWord
// writes a word of that same line, invalidating core 0's copy mid-probe.
// The upgrade then revives the copy as Modified with its pre-ForceWord
// data, so the forced word reads back its old value while the committed
// image holds the forced one. The holder index must follow the revival.
// Whether the revived copy should refetch is an open fidelity question;
// changing it changes simulated output.
func TestForceWordDuringUpgradeRevivesCopy(t *testing.T) {
	line := memory.LineAddr(12)
	data, status := line.WordOf(0), line.WordOf(5)
	s := run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.SetStrongIsolationHook(func(v int) { s.ForceWord(status, 99) })
		s.Store(ctx, 2, status, 7)
		s.Load(ctx, 0, data) // core 0: Shared (core 2 keeps a Shared copy)
		s.BeginTxn(1)
		s.TLoad(ctx, 1, data) // core 1's Rsig covers the line
		if st := s.LineState(0, line); st != cache.Shared {
			t.Fatalf("core 0 holds %v before the upgrade, want S", st)
		}
		s.Store(ctx, 0, data, 5) // GETX upgrade: strong isolation fires
	})
	checkHolders(t, s, "after the upgrade")
	if st := s.LineState(0, line); st != cache.Modified {
		t.Fatalf("core 0 holds %v after the upgrade, want M", st)
	}
	if s.Stats().StrongIsolationAborts != 1 {
		t.Fatalf("StrongIsolationAborts = %d, want 1", s.Stats().StrongIsolationAborts)
	}
	if got := s.Image().ReadWord(status); got != 99 {
		t.Fatalf("image holds %d at the forced word, want 99", got)
	}
	if got := s.ReadWordRaw(status); got != 7 {
		t.Fatalf("revived copy reads %d at the forced word, want the pre-ForceWord 7", got)
	}
	if got := s.ReadWordRaw(data); got != 5 {
		t.Fatalf("revived copy reads %d at the stored word, want 5", got)
	}
}

// probeRoundSystem returns a 16-core system where core 0 holds line in S,
// core 1 holds it too, and cores 2..9 run transactions that never touched
// it: a probe round for line from core 15 visits ten cores, looks up two,
// and tests sixteen signatures.
func probeRoundSystem(tb testing.TB) (*System, memory.LineAddr) {
	tb.Helper()
	s := New(DefaultConfig())
	line := memory.LineAddr(40)
	e := sim.NewEngine()
	e.Spawn("setup", 0, func(ctx *sim.Ctx) {
		s.Load(ctx, 0, line.WordOf(0))
		s.Load(ctx, 1, line.WordOf(0))
		for c := 2; c < 10; c++ {
			s.BeginTxn(c)
			s.TLoad(ctx, c, memory.LineAddr(1000+c).WordOf(0))
			s.TStore(ctx, c, memory.LineAddr(2000+c).WordOf(0), 1)
		}
	})
	e.Run()
	return s, line
}

func TestProbeRoundAndReadWordRawAllocateNothing(t *testing.T) {
	s, line := probeRoundSystem(t)
	before := s.ProbeCensus()
	if n := testing.AllocsPerRun(100, func() { s.probe(15, line, reqGETS) }); n != 0 {
		t.Errorf("probe round: %v allocs, want 0", n)
	}
	pc := s.ProbeCensus()
	if rounds := pc.Rounds - before.Rounds; pc.Visits-before.Visits != 10*rounds || pc.Lookups-before.Lookups != 2*rounds {
		t.Errorf("census %+v after %+v, want 10 visits and 2 lookups per round", pc, before)
	}
	held, unheld := line.WordOf(1), memory.LineAddr(777).WordOf(0)
	if n := testing.AllocsPerRun(100, func() { s.ReadWordRaw(held) }); n != 0 {
		t.Errorf("ReadWordRaw of a held line: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.ReadWordRaw(unheld) }); n != 0 {
		t.Errorf("ReadWordRaw of an unheld line: %v allocs, want 0", n)
	}
}

func BenchmarkProbeRound(b *testing.B) {
	s, line := probeRoundSystem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.probe(15, line, reqGETS)
	}
}

func BenchmarkReadWordRaw(b *testing.B) {
	s, line := probeRoundSystem(b)
	for _, bc := range []struct {
		name string
		a    memory.Addr
	}{{"held", line.WordOf(1)}, {"unheld", memory.LineAddr(777).WordOf(0)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.ReadWordRaw(bc.a)
			}
		})
	}
}

// TestHolderIndexMatchesMap drives the open-addressing holder table and a
// Go map through the same random add/drop churn and compares them after
// every step. Up to 300 lines are live at once out of a million that pass
// through, so probe runs collide, wrap around the table's end and are
// shifted back on deletion; the table must stay the size 300 entries need.
func TestHolderIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h holderIndex
	ref := map[memory.LineAddr]uint64{}
	var live []memory.LineAddr
	for i := 0; i < 200000; i++ {
		core := rng.Intn(4)
		var line memory.LineAddr
		switch {
		case len(live) < 300 && rng.Intn(2) == 0:
			line = memory.LineAddr(rng.Intn(1 << 20))
			if ref[line] == 0 {
				live = append(live, line)
			}
			h.add(line, core)
			ref[line] |= coreBit(core)
		case len(live) > 0:
			j := rng.Intn(len(live))
			line = live[j]
			h.drop(line, core)
			if ref[line] &^= coreBit(core); ref[line] == 0 {
				delete(ref, line)
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		if got, want := h.get(line), ref[line]; got != want || h.n != len(ref) {
			t.Fatalf("step %d line %d: mask %#x, want %#x; %d entries, want %d", i, line, got, want, h.n, len(ref))
		}
		if i%1000 == 0 {
			for l, m := range ref {
				if h.get(l) != m {
					t.Fatalf("step %d: line %d mask %#x, want %#x", i, l, h.get(l), m)
				}
			}
		}
	}
	if len(h.slots) > 1024 {
		t.Fatalf("%d slots for at most 300 entries: the table grew under churn", len(h.slots))
	}
}
