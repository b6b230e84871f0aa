package rig

import (
	"slices"
	"testing"

	"flextm/internal/baselines/cgl"
	"flextm/internal/cm"
	"flextm/internal/core"
	"flextm/internal/fault"
	"flextm/internal/governor"
	"flextm/internal/memory"
	"flextm/internal/observatory"
	"flextm/internal/sim"
	"flextm/internal/telemetry"
	"flextm/internal/tmapi"
	"flextm/internal/tmesi"
)

func machine(cores int) tmesi.Config {
	c := tmesi.DefaultConfig()
	c.Cores = cores
	return c
}

// counters spawns one worker per core, each incrementing a shared line
// rounds times in transactions.
func counters(r *Rig, rt tmapi.Runtime, rounds int) memory.Addr {
	line := r.Sys.Alloc().Alloc(memory.LineWords)
	for i := 0; i < r.Sys.Config().Cores; i++ {
		id := i
		r.Spawn("w", func(ctx *sim.Ctx) {
			th := rt.Bind(ctx, id)
			for n := 0; n < rounds; n++ {
				th.Atomic(func(tx tmapi.Txn) { tx.Store(line, tx.Load(line)+1) })
				th.Work(100)
			}
		})
	}
	return line
}

func TestSpawnOrder(t *testing.T) {
	r, err := New(Spec{
		Machine: machine(2), System: "FlexTM(Lazy)", Workload: "counter",
		Faults:  fault.Config{Seed: 1}.WithRate(fault.Preempt, 0.5),
		Quantum: 500,
		Govern:  governor.New(governor.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := core.New(r.Sys, core.Lazy, cm.NewPolka())
	r.SetRuntime(rt)
	line := counters(r, rt, 20)
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, c := range r.Engine.Threads() {
		names = append(names, c.Name())
	}
	if want := []string{"w", "w", "preempt-storm", "observatory"}; !slices.Equal(names, want) {
		t.Fatalf("threads %v, want %v", names, want)
	}
	if got := r.Sys.ReadWordRaw(line); got != 40 {
		t.Fatalf("counter = %d, want 40", got)
	}
}

// TestInstrumentsAttachBeforeRuntime: a runtime built over Rig.Sys
// captures the registry, so its commits reach the telemetry snapshot.
func TestInstrumentsAttachBeforeRuntime(t *testing.T) {
	r, err := New(Spec{Machine: machine(2), Metrics: true, Flight: true, Oracle: true})
	if err != nil {
		t.Fatal(err)
	}
	rt := core.New(r.Sys, core.Eager, cm.NewPolka())
	r.SetRuntime(rt)
	if rt.Oracle() == nil || rt.Oracle() != r.Oracle() {
		t.Fatal("oracle recorder not handed to the runtime")
	}
	counters(r, rt, 10)
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.Sys.Telemetry().Snapshot().Total(telemetry.CtrTxnCommits); got != 20 {
		t.Fatalf("telemetry saw %d commits, want 20", got)
	}
	if len(r.Sys.Flight().Snapshot()) == 0 {
		t.Fatal("flight recorder saw nothing")
	}
	if rep := r.Oracle().Check(); !rep.Ok() || rep.Txns == 0 {
		t.Fatalf("oracle report %+v", rep)
	}
}

// TestBareMachine: a run that asks for nothing gets no instrument.
func TestBareMachine(t *testing.T) {
	r, err := New(Spec{Machine: machine(2), Oracle: true})
	if err != nil {
		t.Fatal(err)
	}
	r.SetRuntime(cgl.New(r.Sys))
	if r.Sys.Telemetry() != nil || r.Sys.Flight() != nil || r.Sys.FaultInjector() != nil || r.Oracle() != nil {
		t.Fatal("bare run has an instrument attached")
	}
}

func TestCoreCountOutOfRange(t *testing.T) {
	for _, cores := range []int{0, tmesi.MaxCores + 1} {
		if _, err := New(Spec{Machine: machine(cores)}); err == nil {
			t.Fatalf("%d cores: no error", cores)
		}
	}
}

func TestGovernorNeedsFlexTM(t *testing.T) {
	r, err := New(Spec{Machine: machine(2), System: "CGL", Govern: governor.New(governor.Config{})})
	if err != nil {
		t.Fatal(err)
	}
	r.SetRuntime(cgl.New(r.Sys))
	err = r.Run()
	if err == nil || err.Error() != "governor requires a FlexTM runtime, not CGL" {
		t.Fatalf("err = %v", err)
	}
}

// TestWedgedRunStopsSideThreads: without a storm a blocked worker no
// longer counts as running, so the pump stops and Run reports the blocked
// thread instead of sampling forever.
func TestWedgedRunStopsSideThreads(t *testing.T) {
	r, err := New(Spec{Machine: machine(2), Observe: observatory.NewPump(observatory.Config{Interval: 100})})
	if err != nil {
		t.Fatal(err)
	}
	r.Spawn("stuck", func(ctx *sim.Ctx) {
		ctx.Advance(1000)
		ctx.Block()
	})
	err = r.Run()
	if err == nil || err.Error() != "1 threads blocked" {
		t.Fatalf("err = %v", err)
	}
}
