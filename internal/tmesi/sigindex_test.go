package tmesi

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"flextm/internal/cache"
	"flextm/internal/fault"
	"flextm/internal/flight"
	"flextm/internal/memory"
	"flextm/internal/signature"
	"flextm/internal/sim"
	"flextm/internal/telemetry"
)

// checkSigIndex asserts the sliced index invariant: each filter bit's mask
// equals one rebuilt from every core's signature words, in the machine's
// current geometry. It also checks what hangs off the signatures: every
// live insert-filter entry names a line its signature holds (and, in audit
// mode, shadows), and the cached predictions equal fresh ones.
func checkSigIndex(t *testing.T, s *System, when string) {
	t.Helper()
	cfg := s.cfg.Sig
	rref, wref := signature.NewSlices(cfg, len(s.cores)), signature.NewSlices(cfg, len(s.cores))
	for i := range s.cores {
		rref.Load(i, s.cores[i].rsig)
		wref.Load(i, s.cores[i].wsig)
	}
	for b := 0; b < cfg.Bits; b++ {
		if s.rslices.Mask(b) != rref.Mask(b) || s.wslices.Mask(b) != wref.Mask(b) {
			t.Fatalf("%s: bit %d: index masks R %#x W %#x, rebuilt R %#x W %#x",
				when, b, s.rslices.Mask(b), s.wslices.Mask(b), rref.Mask(b), wref.Mask(b))
		}
	}
	for i := range s.cores {
		c := &s.cores[i]
		f := &c.filter
		for _, sl := range f.slots {
			if sl.gen != f.gen {
				continue
			}
			sig := c.rsig
			if sl.write {
				sig = c.wsig
			}
			if !sig.Member(sl.line) || sig.AuditEnabled() && !sig.Inserted(sl.line) {
				t.Fatalf("%s: core %d filter lists line %d (write %v), which its signature does not hold",
					when, i, sl.line, sl.write)
			}
		}
		if c.rsig.AuditEnabled() && c.rppm != predictedPPM(c.rsig) || c.wsig.AuditEnabled() && c.wppm != predictedPPM(c.wsig) {
			t.Fatalf("%s: core %d cached ppm R %d W %d, predicted R %d W %d",
				when, i, c.rppm, c.wppm, predictedPPM(c.rsig), predictedPPM(c.wsig))
		}
	}
}

// sigStream is one run of the sliced-index differential test.
type sigStream struct {
	obs    []holderObs
	census []ProbeCensus
	flight []flight.Rec
	tel    telemetry.Snapshot
	// tels holds the telemetry after each op, when attached.
	tels []telemetry.Snapshot
}

// runSigStream drives a seeded random multi-core op stream through a fresh
// system whose signatures have geometry sig, reading probe rounds' hits
// from the sliced index or (scan) testing each core's signatures with
// MemberKey, and records what every op observed. withTel attaches
// telemetry (audit mode), withInj a fault injector; with neither, rounds
// skip the visits that change nothing. With check set it asserts the
// index invariant after every op. Beyond runHolderStream's ops, the stream
// inserts watch lines and clears signatures, on cores in and out of
// transactions, and its strong-isolation hook does both to other cores
// mid-round, or aborts one, so a round must re-read its hits and the
// transactional cores after the hook.
func runSigStream(t *testing.T, seed int64, sig signature.Config, scan, withTel, withInj, check bool) sigStream {
	t.Helper()
	const (
		cores    = 6
		hot      = 16
		universe = 96
		ops      = 1500
	)
	cfg := smallCfg()
	cfg.Cores = cores
	cfg.Sig = sig
	s := New(cfg)
	s.sigScan = scan
	if withTel {
		s.SetTelemetry(telemetry.New(cores))
	}
	s.SetFlight(flight.New(cores, 1<<14))
	if withInj {
		fc := fault.Config{Seed: uint64(seed)}
		fc.Rates[fault.SigFalsePos] = 0.05
		fc.Rates[fault.CoherenceDelay] = 0.1
		fc.Rates[fault.AlertLoss] = 0.3
		s.SetFaultInjector(fault.NewInjector(fc))
	}
	rng := rand.New(rand.NewSource(seed))
	addr := func() memory.Addr {
		l := rng.Intn(universe)
		if rng.Intn(10) < 7 {
			l = rng.Intn(hot)
		}
		return memory.LineAddr(l).WordOf(rng.Intn(memory.LineWords))
	}
	tsw := make([]memory.Addr, cores)
	for c := range tsw {
		tsw[c] = memory.LineAddr(c % 8).WordOf(7)
	}
	s.SetStrongIsolationHook(func(v int) {
		if s.TxnActive(v) {
			s.ForceWord(tsw[v], 3)
		}
		switch o := rng.Intn(cores); rng.Intn(4) {
		case 0:
			s.WatchInsert(o, addr(), rng.Intn(2) == 0)
		case 1:
			s.ClearSigs(o)
		case 2:
			if o != v && s.TxnActive(o) {
				s.flashAbortLocked(&s.cores[o], o)
			}
		}
	})
	saved := make([]*SavedTxn, cores)
	var out sigStream
	e := sim.NewEngine()
	e.Spawn("stream", 0, func(ctx *sim.Ctx) {
		for i := 0; i < ops; i++ {
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
			case p < 70:
				o.Op, o.Res = "Load", s.Load(ctx, c, addr())
			case p < 77:
				o.Op, o.Res = "Store", s.Store(ctx, c, addr(), rng.Uint64()%100)
			case p < 80:
				o.Op = "CAS"
				o.Res, o.Flag = s.CAS(ctx, c, addr(), 0, rng.Uint64()%100)
			case p < 84:
				o.Op = "WatchInsert"
				s.WatchInsert(c, addr(), rng.Intn(2) == 0)
			case p < 86:
				o.Op = "ClearSigs"
				s.ClearSigs(c)
			case p < 88:
				o.Op = "SetSigWatch"
				s.SetSigWatch(c, rng.Intn(2) == 0)
			case p < 91:
				o.Op = "ForceWord"
				s.ForceWord(addr(), rng.Uint64()%100)
			case p < 95:
				o.Op = "FlushTMIToOT+RemapLine"
				old, nw := memory.LineAddr(rng.Intn(universe)), memory.LineAddr(rng.Intn(universe))
				s.FlushTMIToOT(c, []memory.LineAddr{old})
				s.RemapLine(c, old, nw)
			case p < 96 && !anySaved(saved):
				o.Op = "WidenSignatures"
				g := s.cfg.Sig
				if g.Bits *= 2; g.Bits > 8*sig.Bits {
					g = sig
				}
				o.Flag = s.WidenSignatures(g) == nil
			default:
				o.Op, o.Res = "ALoad", s.ALoad(ctx, c, addr())
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
			out.obs = append(out.obs, o)
			out.census = append(out.census, s.ProbeCensus())
			if withTel {
				out.tels = append(out.tels, s.Telemetry().Snapshot())
			}
			if check {
				checkSigIndex(t, s, o.Op)
			}
			ctx.Advance(sim.Time(rng.Intn(20)))
		}
	})
	e.Run()
	out.flight = s.Flight().Snapshot()
	out.tel = s.Telemetry().Snapshot()
	return out
}

// TestSigIndexMatchesMemberKey checks probe rounds that read signature
// hits from the sliced index, and skip the visits that change nothing,
// against rounds that test every visited core's signatures with MemberKey,
// in the manner of TestHolderIndexMatchesBroadcast: the same random op
// streams must observe the same results, latencies, counters, CSTs, L1
// contents, probe census, flight records and telemetry, op by op, with and
// without telemetry and a fault injector, in a narrow, the paper's and a
// many-banked geometry.
func TestSigIndexMatchesMemberKey(t *testing.T) {
	geoms := []signature.Config{{Bits: 256, Banks: 4}, signature.DefaultConfig(), {Bits: 512, Banks: 8}}
	for seed := int64(1); seed <= 3; seed++ {
		for _, g := range geoms {
			for _, mode := range []struct{ tel, inj bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
				name := fmt.Sprintf("seed%d/%dx%d/tel=%v/inj=%v", seed, g.Bits, g.Banks, mode.tel, mode.inj)
				t.Run(name, func(t *testing.T) {
					idx := runSigStream(t, seed, g, false, mode.tel, mode.inj, true)
					ref := runSigStream(t, seed, g, true, mode.tel, mode.inj, false)
					for i := range ref.obs {
						if !reflect.DeepEqual(idx.obs[i], ref.obs[i]) {
							t.Fatalf("op %s diverges from MemberKey rounds:\nindexed %+v\nscanned %+v", ref.obs[i].Op, idx.obs[i], ref.obs[i])
						}
						if idx.census[i] != ref.census[i] {
							t.Fatalf("op %s: census %+v, MemberKey rounds %+v", ref.obs[i].Op, idx.census[i], ref.census[i])
						}
					}
					if !reflect.DeepEqual(idx.flight, ref.flight) {
						t.Fatal("flight records diverge from MemberKey rounds")
					}
					if !reflect.DeepEqual(idx.tel, ref.tel) {
						t.Fatal("telemetry diverges from MemberKey rounds")
					}
				})
			}
		}
	}
}

// TestAuditedSkipMatchesBroadcast checks the true negatives that audited
// probe rounds charge for the transactional cores they skip against
// rounds that visit and classify every one (the MemberKey broadcast): with
// telemetry attached, the same random op streams must leave the same
// telemetry after every op, in each geometry.
func TestAuditedSkipMatchesBroadcast(t *testing.T) {
	geoms := []signature.Config{{Bits: 256, Banks: 4}, signature.DefaultConfig(), {Bits: 512, Banks: 8}}
	for seed := int64(4); seed <= 9; seed++ {
		for _, g := range geoms {
			t.Run(fmt.Sprintf("seed%d/%dx%d", seed, g.Bits, g.Banks), func(t *testing.T) {
				skip := runSigStream(t, seed, g, false, true, false, false)
				scan := runSigStream(t, seed, g, true, true, false, false)
				for i := range scan.tels {
					if !reflect.DeepEqual(skip.tels[i], scan.tels[i]) {
						t.Fatalf("op %s: telemetry diverges from broadcast rounds", scan.obs[i].Op)
					}
				}
				if skip.tel.Total(telemetry.CtrSigTrueNeg) == 0 {
					t.Fatal("stream charged no true negatives")
				}
			})
		}
	}
}

// TestRefusedWidenChangesNothing: WidenSignatures refuses a geometry that
// signature.Config.Validate rejects before it touches any signature, the
// sliced indexes or the machine's geometry, so the run goes on as if the
// governor's rung had not fired.
func TestRefusedWidenChangesNothing(t *testing.T) {
	cfg := smallCfg()
	s := New(cfg)
	s.SetTelemetry(telemetry.New(cfg.Cores))
	for c := 0; c < cfg.Cores; c++ {
		s.BeginTxn(c)
		for l := 0; l < 10; l++ {
			s.WatchInsert(c, memory.LineAddr(c*100+l).WordOf(0), l%3 == 0)
		}
	}
	// state is everything a widen replaces: the geometry, each signature
	// (pointer and contents) and each index (pointer and every mask).
	state := func() []any {
		out := []any{s.cfg.Sig, s.rslices, s.wslices}
		for i := range s.cores {
			for _, sig := range []*signature.Sig{s.cores[i].rsig, s.cores[i].wsig} {
				out = append(out, sig, sig.PopCount(), sig.Inserts(), sig.Distinct())
			}
		}
		for _, x := range []*signature.Slices{s.rslices, s.wslices} {
			for b := 0; b < s.cfg.Sig.Bits; b++ {
				out = append(out, x.Mask(b))
			}
		}
		return out
	}
	before := state()
	for _, g := range []signature.Config{
		{Bits: 3 * cfg.Sig.Bits, Banks: cfg.Sig.Banks},
		{Bits: 64 * cfg.Sig.Bits, Banks: cfg.Sig.Banks},
		{Bits: cfg.Sig.Bits, Banks: 16},
	} {
		if err := s.WidenSignatures(g); err == nil {
			t.Fatalf("WidenSignatures(%+v) = nil, want a refusal", g)
		}
		if !reflect.DeepEqual(state(), before) {
			t.Fatalf("refused WidenSignatures(%+v) changed the signatures or their index", g)
		}
	}
}
