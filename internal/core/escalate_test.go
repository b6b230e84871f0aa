package core

import (
	"reflect"
	"testing"

	"flextm/internal/cm"
	"flextm/internal/fault"
	"flextm/internal/sim"
	"flextm/internal/telemetry"
	"flextm/internal/tmapi"
)

// escalateRun drives a transfer workload under an injector and returns the
// board for inspection. Every thread performs ops transfers between two hot
// cells, so the run both contends and conserves.
func escalateRun(t *testing.T, mode Mode, cfg fault.Config, live Liveness, threads, ops int) (*chaosBoard, *fault.Injector, *telemetry.Registry) {
	t.Helper()
	const cells, initial = 4, 1000
	b := newChaosBoard(mode, cm.NewPolka(), cells, threads, initial)
	b.rt.SetLiveness(live)
	inj := fault.NewInjector(cfg)
	b.sys.SetFaultInjector(inj)

	e := sim.NewEngine()
	for ti := 0; ti < threads; ti++ {
		id := ti
		e.Spawn("esc", 0, func(ctx *sim.Ctx) {
			th := b.rt.Bind(ctx, id)
			r := sim.NewRand(uint64(id)*31 + 7)
			for n := 0; n < ops; n++ {
				from, to := r.Intn(cells), r.Intn(cells)
				th.Atomic(func(tx tmapi.Txn) {
					f := tx.Load(b.cell(from))
					if f == 0 {
						return
					}
					tx.Store(b.cell(from), f-1)
					tx.Store(b.cell(to), tx.Load(b.cell(to))+1)
				})
			}
		})
	}
	if blocked := e.Run(); blocked != 0 {
		t.Fatalf("%d threads blocked (liveness failure)", blocked)
	}
	var total uint64
	for i := 0; i < cells; i++ {
		total += b.sys.ReadWordRaw(b.cell(i))
	}
	if want := uint64(cells) * initial; total != want {
		t.Fatalf("total = %d, want %d (conservation broken)", total, want)
	}
	return b, inj, b.tel
}

// TestWatchdogEscalatesAndCommits: under a heavy injected CAS-Commit race
// storm and a tight budget, threads must trip the watchdog, escalate, and
// still finish the run with conservation intact.
func TestWatchdogEscalatesAndCommits(t *testing.T) {
	live := Liveness{MaxConsecAborts: 4, MaxStallCycles: 500_000, MaxCommitRetries: 4}
	cfg := fault.Config{Seed: 42}.WithRate(fault.CommitRace, 0.9)
	for _, mode := range []Mode{Eager, Lazy} {
		b, _, tel := escalateRun(t, mode, cfg, live, 4, 30)
		st := b.rt.Stats()
		if st.Escalations == 0 {
			t.Fatalf("%v: no escalations under a 90%% CommitRace storm", mode)
		}
		snap := tel.Snapshot()
		for _, ctr := range []telemetry.Counter{
			telemetry.CtrWatchdogTrip, telemetry.CtrEscalation, telemetry.CtrEscalatedCommit,
		} {
			if snap.Total(ctr) == 0 {
				t.Errorf("%v: counter %s is zero", mode, ctr)
			}
		}
		if snap.Total(telemetry.CtrEscalation) != st.Escalations {
			t.Errorf("%v: telemetry escalations %d != stats %d",
				mode, snap.Total(telemetry.CtrEscalation), st.Escalations)
		}
	}
}

// TestCommitRaceRateOneForwardProgress: at rate 1.0 every non-immune
// CAS-Commit with a CST check is refused, so no optimistic commit can ever
// succeed. Forward progress then rests entirely on the commit-retry budget
// converting the spin into aborts, the watchdog tripping, and escalated
// (fault-immune) execution — the run must still complete and conserve.
func TestCommitRaceRateOneForwardProgress(t *testing.T) {
	live := Liveness{MaxConsecAborts: 3, MaxStallCycles: 0, MaxCommitRetries: 3}
	cfg := fault.Config{Seed: 7}.WithRate(fault.CommitRace, 1.0)
	const threads, ops = 3, 10
	b, _, _ := escalateRun(t, Lazy, cfg, live, threads, ops)
	st := b.rt.Stats()
	if st.Escalations == 0 {
		t.Fatal("no escalations at CommitRace rate 1.0")
	}
	if st.Commits < threads*ops {
		t.Fatalf("commits = %d, want >= %d", st.Commits, threads*ops)
	}
}

// TestAlertLossRateOneBackstop: with every eviction/invalidation alert
// dropped, a doomed transaction never hears it was aborted — the CAS-Commit
// status-word check is the backstop that must keep the invariants intact.
func TestAlertLossRateOneBackstop(t *testing.T) {
	cfg := fault.Config{Seed: 11}.WithRate(fault.AlertLoss, 1.0)
	for _, mode := range []Mode{Eager, Lazy} {
		escalateRun(t, mode, cfg, DefaultLiveness(), 4, 30)
	}
}

// TestEscalationDeterminism: the same seed and config must yield the exact
// same commits, aborts, escalations, and fault schedule across two runs.
func TestEscalationDeterminism(t *testing.T) {
	live := Liveness{MaxConsecAborts: 4, MaxStallCycles: 500_000, MaxCommitRetries: 4}
	cfg := fault.Config{Seed: 99}.
		WithRate(fault.CommitRace, 0.4).
		WithRate(fault.SpuriousAlert, 0.1).
		WithRate(fault.AlertLoss, 0.2)
	type outcome struct {
		Stats  tmapi.Stats
		Report fault.Report
	}
	run := func() outcome {
		b, inj, _ := escalateRun(t, Lazy, cfg, live, 4, 25)
		return outcome{Stats: b.rt.Stats(), Report: inj.Report()}
	}
	a, bb := run(), run()
	if !reflect.DeepEqual(a, bb) {
		t.Fatalf("two identical runs diverged:\n  run1 = %+v\n  run2 = %+v", a, bb)
	}
}
