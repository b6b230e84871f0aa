package tmesi

import (
	"testing"

	"flextm/internal/cst"
	"flextm/internal/memory"
	"flextm/internal/sim"
)

// checkNoSelfBits fails if any core's CST names the core itself. The probe
// loop skips the requester (a processor does not respond to its own request),
// so a self bit can only come from a bookkeeping bug — and the Commit()
// routine would then try to abort its own committing transaction.
func checkNoSelfBits(t *testing.T, s *System, cores int) {
	t.Helper()
	for c := 0; c < cores; c++ {
		for _, k := range []cst.Kind{cst.RW, cst.WR, cst.WW} {
			if s.CST(c).Has(k, c) {
				t.Errorf("core %d's %v names itself: %s", c, k, s.CST(c).String())
			}
		}
	}
}

// TestCSTNeverNamesSelf drives every conflict flavor — write/read, write/write,
// read/write — plus heavy same-core re-access (the requester's own signatures
// contain every probed line, the classic way to manufacture a self conflict)
// and checks no CST ever sets its own processor's bit.
func TestCSTNeverNamesSelf(t *testing.T) {
	cfg := smallCfg()
	s := run(t, cfg, func(ctx *sim.Ctx, s *System) {
		s.BeginTxn(0)
		// Re-access our own read and write sets: rsig/wsig both contain
		// these lines when the later requests probe.
		for i := 0; i < 8; i++ {
			a := memory.Addr(600 + i*memory.LineWords)
			s.TStore(ctx, 0, a, uint64(i))
			s.TLoad(ctx, 0, a)
			s.TStore(ctx, 0, a, uint64(i)+1)
		}
		ctx.Advance(4000)
		ctx.Sync()
	}, func(ctx *sim.Ctx, s *System) {
		ctx.Advance(1000)
		s.BeginTxn(1)
		s.TLoad(ctx, 1, 600)     // R vs W(0)
		s.TStore(ctx, 1, 608, 9) // W vs W(0)
		s.TLoad(ctx, 1, 608)     // read own speculative write
	}, func(ctx *sim.Ctx, s *System) {
		ctx.Advance(2000)
		s.BeginTxn(2)
		s.TStore(ctx, 2, 600, 3) // W vs W(0) and vs R(1)
		s.TLoad(ctx, 2, 600)
	})
	checkNoSelfBits(t, s, cfg.Cores)
	// The cross-core conflicts themselves must still have registered.
	if s.CST(1).Get(cst.RW).Empty() && s.CST(1).Get(cst.WW).Empty() {
		t.Error("core 1 saw no conflicts at all; the self-bit check proved nothing")
	}
}

// TestCSTScrubVsConcurrentCommit exercises the Section 3.6 scrub against a
// concurrent Figure 3 commit at the register level, through the system's
// software-visible CST interface: the committer's copy-and-clear snapshots
// the pre-scrub state, the late scrub is a no-op on the cleared register,
// and a scrub landing before the copy-and-clear removes the reader from the
// enemy set. Either serialization leaves the tables consistent.
func TestCSTScrubVsConcurrentCommit(t *testing.T) {
	s := run(t, smallCfg(), func(ctx *sim.Ctx, s *System) {
		s.BeginTxn(0)
		s.TStore(ctx, 0, 700, 1)
		ctx.Advance(4000)
		ctx.Sync()
	}, func(ctx *sim.Ctx, s *System) {
		ctx.Advance(1000)
		s.BeginTxn(1)
		s.TLoad(ctx, 1, 700) // Threatened: 0.W-R={1}, 1.R-W={0}
	})
	if !s.CST(0).Has(cst.WR, 1) || !s.CST(1).Has(cst.RW, 0) {
		t.Fatalf("setup conflict missing: core0 %s / core1 %s",
			s.CST(0).String(), s.CST(1).String())
	}

	// Serialization A: writer's commit copy-and-clears W-R first, then the
	// reader's scrub arrives late. The snapshot names the reader (who will
	// absorb the abort); the late scrub must be a harmless no-op.
	snap := s.CST(0).Get(cst.WR).CopyAndClear()
	if !snap.Has(1) {
		t.Fatal("commit snapshot lost the reader")
	}
	s.CST(0).Get(cst.WR).Clear(1) // reader's scrub, losing the race
	if !s.CST(0).Get(cst.WR).Empty() {
		t.Fatalf("late scrub left state: %s", s.CST(0).String())
	}

	// Serialization B: re-arm the bit, scrub first, then commit. The
	// snapshot must now be empty — the reader escapes the enemy set.
	s.CST(0).Set(cst.WR, 1)
	s.CST(0).Get(cst.WR).Clear(1) // reader's scrub wins the race
	if snap := s.CST(0).Get(cst.WR).CopyAndClear(); !snap.Empty() {
		t.Fatalf("post-scrub commit snapshot = %#x, want empty", uint64(snap))
	}
	// The reader's own R-W is untouched by either serialization: the scrub
	// targets remote W-R registers only.
	if !s.CST(1).Has(cst.RW, 0) {
		t.Error("reader's R-W lost core 0")
	}
	checkNoSelfBits(t, s, smallCfg().Cores)
}
