package core

import (
	"testing"

	"flextm/internal/cm"
	"flextm/internal/fault"
	"flextm/internal/sim"
	"flextm/internal/telemetry"
	"flextm/internal/tmapi"
	"flextm/internal/tmesi"
)

// TestGovernorKnobsOffAreAllocationFree pins the zero-cost-when-disabled
// guarantee: with no governor bound, every knob the governor could turn is a
// zero value, and the per-section checks (admission gate, serialize branch,
// knob reads) allocate nothing.
func TestGovernorKnobsOffAreAllocationFree(t *testing.T) {
	sys := tmesi.New(tmesi.DefaultConfig())
	rt := New(sys, Eager, cm.Aggressive{})
	th := &Thread{rt: rt}
	if n := testing.AllocsPerRun(1000, func() {
		th.admitGate()
		th.admitRelease()
		_ = rt.ForceSerial()
		_ = rt.BackoffBoost()
		_ = rt.AdmitLimit()
		_ = rt.CM()
	}); n != 0 {
		t.Fatalf("disabled governor knobs allocate %.1f per section, want 0", n)
	}
}

// TestTxnAccessHitIsAllocationFree pins the transactional hot path: with
// every instrument off (no telemetry, flight recorder, oracle or governor),
// a Load and Store that hit the L1 without a conflict allocate nothing, in
// either conflict-detection mode.
func TestTxnAccessHitIsAllocationFree(t *testing.T) {
	for _, mode := range []Mode{Eager, Lazy} {
		sys := tmesi.New(testCfg())
		rt := New(sys, mode, cm.NewPolka())
		x := sys.Alloc().Alloc(1)
		allocs := -1.0
		runThreads(t, rt, func(th tmapi.Thread) {
			th.Atomic(func(tx tmapi.Txn) {
				tx.Store(x, tx.Load(x)+1) // bring the line into the L1 as TMI
				allocs = testing.AllocsPerRun(1000, func() {
					tx.Store(x, tx.Load(x)+1)
				})
			})
		})
		if allocs != 0 {
			t.Fatalf("%v: transactional Load+Store hit allocates %.1f per pair, want 0", mode, allocs)
		}
	}
}

// TestRuntimeKnobSettersClampAndSwap covers the governor's runtime hooks
// directly: live CM swap, boost clamping, and limit floor.
func TestRuntimeKnobSettersClampAndSwap(t *testing.T) {
	sys := tmesi.New(tmesi.DefaultConfig())
	rt := New(sys, Eager, cm.Aggressive{})
	rt.SetCM(nil) // nil is ignored, not installed
	if _, ok := rt.CM().(cm.Aggressive); !ok {
		t.Fatalf("SetCM(nil) replaced the manager: %T", rt.CM())
	}
	rt.SetCM(cm.NewPolka())
	if _, ok := rt.CM().(*cm.Polka); !ok {
		t.Fatalf("SetCM did not install Polka: %T", rt.CM())
	}
	rt.SetBackoffBoost(99)
	if got := rt.BackoffBoost(); got != backoffBoostCap {
		t.Fatalf("boost = %d, want clamped to %d", got, backoffBoostCap)
	}
	rt.SetAdmitLimit(-3)
	if rt.AdmitLimit() != 0 {
		t.Fatalf("negative admit limit = %d, want 0", rt.AdmitLimit())
	}
}

// TestConcurrentEscalationSerializes: with CAS-Commit refused outright and a
// budget of 2, both duelling threads hit the liveness budget in the same
// interval. The fallback lock must funnel them through one irrevocable owner
// at a time — a monitor thread samples escActive at every tick and must
// never see two.
func TestConcurrentEscalationSerializes(t *testing.T) {
	const cells, initial, threads, ops = 2, 1000, 2, 12
	b := newChaosBoard(Eager, cm.Aggressive{}, cells, threads, initial)
	b.rt.SetLiveness(Liveness{MaxConsecAborts: 2, MaxStallCycles: 0, MaxCommitRetries: 2})
	inj := fault.NewInjector(fault.Config{Seed: 5}.WithRate(fault.CommitRace, 1.0))
	b.sys.SetFaultInjector(inj)

	e := sim.NewEngine()
	var workers []*sim.Ctx
	for ti := 0; ti < threads; ti++ {
		id := ti
		workers = append(workers, e.Spawn("duel", 0, func(ctx *sim.Ctx) {
			th := b.rt.Bind(ctx, id)
			from, to := id%cells, (id+1)%cells
			for n := 0; n < ops; n++ {
				th.Atomic(func(tx tmapi.Txn) {
					f := tx.Load(b.cell(from))
					if f == 0 {
						return
					}
					tx.Store(b.cell(from), f-1)
					tx.Store(b.cell(to), tx.Load(b.cell(to))+1)
				})
			}
		}))
	}
	maxActive := 0
	e.Spawn("monitor", 0, func(ctx *sim.Ctx) {
		for {
			live := false
			for _, w := range workers {
				if !w.Done() {
					live = true
					break
				}
			}
			if !live {
				break
			}
			ctx.Advance(64)
			ctx.Sync()
			if b.rt.escActive > maxActive {
				maxActive = b.rt.escActive
			}
		}
	})
	if blocked := e.Run(); blocked != 0 {
		t.Fatalf("%d threads blocked", blocked)
	}
	if maxActive != 1 {
		t.Fatalf("max concurrent irrevocable owners observed = %d, want exactly 1", maxActive)
	}
	perCore := b.tel.Snapshot().PerCore(telemetry.CtrEscalation)
	for c, n := range perCore {
		if n == 0 {
			t.Errorf("core %d never escalated under CommitRace 1.0 (budget should force it)", c)
		}
	}
	var total uint64
	for i := 0; i < cells; i++ {
		total += b.sys.ReadWordRaw(b.cell(i))
	}
	if want := uint64(cells) * initial; total != want {
		t.Fatalf("total = %d, want %d (conservation broken)", total, want)
	}
}
