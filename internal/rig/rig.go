// Package rig assembles simulated runs. It is the one place that turns a
// machine configuration into a finished run: it builds the memory system
// and the engine, attaches the instruments a run asks for before the
// runtime is built, wires the serializability oracle into the runtime,
// spawns the side threads (preemption storm, observatory pump, governor)
// behind the workers in a fixed order, and reports threads left blocked as
// an error.
//
// Callers keep what is theirs: the runtime choice (built over Rig.Sys and
// handed back through SetRuntime), the worker bodies with their own seeds
// and thread names, the invariants, and the result fields, including their
// own cycle measure. A run that asks for nothing gets a bare machine and
// engine and nothing more.
package rig

import (
	"errors"
	"fmt"
	"slices"

	"flextm/internal/core"
	"flextm/internal/fault"
	"flextm/internal/flight"
	"flextm/internal/governor"
	"flextm/internal/memory"
	"flextm/internal/observatory"
	"flextm/internal/oracle"
	"flextm/internal/osmodel"
	"flextm/internal/sim"
	"flextm/internal/telemetry"
	"flextm/internal/tmapi"
	"flextm/internal/tmesi"
)

// Spec describes one run's machine, instruments and side threads.
type Spec struct {
	// Machine is the simulated CMP. New rejects a core count outside
	// 1..tmesi.MaxCores and a signature geometry that Validate rejects.
	Machine tmesi.Config
	// System and Workload name the run in observation frames; System also
	// names the runtime when a governor cannot bind to it.
	System, Workload string
	// Metrics attaches a telemetry registry (and with it audit-mode
	// signatures).
	Metrics bool
	// Flight attaches a flight recorder holding up to FlightPerCore
	// records per core (0 selects flight.DefaultPerCore).
	Flight        bool
	FlightPerCore int
	// Faults attaches a fault injector when any rate is non-zero.
	Faults fault.Config
	// Oracle hands a fresh serializability recorder to a FlexTM runtime.
	Oracle bool
	// Quantum, when positive and Faults has a Preempt rate, runs the
	// preemption storm at that tick (FlexTM runtimes only).
	Quantum sim.Time
	// Observe runs the observatory pump behind the workers. It forces
	// Metrics and Flight on: the pump has nothing to sample without them.
	Observe *observatory.Pump
	// Govern runs the governor behind the pump (FlexTM runtimes only). A
	// governed run without Observe gets a private pump and bus sampling
	// every Interval cycles (0 selects observatory.DefaultInterval).
	Govern   *governor.Governor
	Interval sim.Time
	// Tail is how many empty intervals the pump and the governor sample
	// after the workers stop running.
	Tail int
}

// Rig is one assembled run.
type Rig struct {
	// Sys is the machine, instruments attached; build the runtime over it.
	Sys *tmesi.System
	// Engine runs the workers and side threads.
	Engine *sim.Engine

	spec    Spec
	inj     *fault.Injector
	orc     *oracle.Recorder
	rt      tmapi.Runtime
	workers []*sim.Ctx
	done    []bool
}

// New builds the machine and the engine and attaches the instruments spec
// asks for. They attach before the caller builds its runtime: core.New
// captures the registry and the recorder, and the registry switches the
// signatures into audit mode.
func New(spec Spec) (*Rig, error) {
	if c := spec.Machine.Cores; c < 1 || c > tmesi.MaxCores {
		return nil, fmt.Errorf("machine with %d cores: core count must be in 1..%d", c, tmesi.MaxCores)
	}
	if err := spec.Machine.Sig.Validate(); err != nil {
		return nil, err
	}
	if spec.Govern != nil && spec.Observe == nil {
		// The governor feeds on published frames.
		spec.Observe = observatory.NewPump(observatory.Config{Interval: spec.Interval, Bus: observatory.NewBus()})
	}
	if spec.Govern != nil && spec.Observe.Bus() == nil {
		return nil, errors.New("governor requires a pump with a bus")
	}
	if spec.Observe != nil {
		spec.Metrics, spec.Flight = true, true
	}
	r := &Rig{Sys: tmesi.New(spec.Machine), Engine: sim.NewEngine(), spec: spec}
	if spec.Metrics {
		r.Sys.SetTelemetry(telemetry.New(spec.Machine.Cores))
	}
	if spec.Flight {
		r.Sys.SetFlight(flight.New(spec.Machine.Cores, spec.FlightPerCore))
	}
	if spec.Faults.Any() {
		r.inj = fault.NewInjector(spec.Faults)
		r.Sys.SetFaultInjector(r.inj)
	}
	return r, nil
}

// SetRuntime names the runtime the caller built over r.Sys and, when the
// spec asks for the oracle, hands a fresh recorder to it (FlexTM only).
func (r *Rig) SetRuntime(rt tmapi.Runtime) {
	r.rt = rt
	if fx, ok := rt.(*core.Runtime); ok && r.spec.Oracle {
		r.orc = oracle.NewRecorder()
		fx.SetOracle(r.orc)
	}
}

// Oracle returns the run's recorder (nil without Spec.Oracle or on a
// non-FlexTM runtime).
func (r *Rig) Oracle() *oracle.Recorder { return r.orc }

// Lines allocates n one-line cells holding initial and registers that
// value with the oracle, when one is attached.
func (r *Rig) Lines(n int, initial uint64) []memory.Addr {
	out := make([]memory.Addr, n)
	for i := range out {
		out[i] = r.Sys.Alloc().Alloc(memory.LineWords)
		if initial != 0 {
			r.Sys.Image().WriteWord(out[i], initial)
		}
		r.orc.SetInitial(out[i], initial)
	}
	return out
}

// Injector returns the run's fault injector (nil when no rate is set).
func (r *Rig) Injector() *fault.Injector { return r.inj }

// Spawn adds a worker thread starting at time 0. Workers are spawned
// before any side thread; the preemption storm treats worker i as running
// on core i.
func (r *Rig) Spawn(name string, body func(*sim.Ctx)) *sim.Ctx {
	i := len(r.workers)
	r.done = append(r.done, false)
	c := r.Engine.Spawn(name, 0, func(ctx *sim.Ctx) {
		body(ctx)
		r.done[i] = true
	})
	r.workers = append(r.workers, c)
	return c
}

// Run spawns the side threads behind the workers — the preemption storm,
// then the pump, then the governor, which must follow the pump — and runs
// the engine. Threads left blocked are an error.
//
// The side threads stop once the workers stop running. Without a storm a
// worker stops running when it finishes or blocks, so a wedged run cannot
// keep the engine alive; with a storm a parked worker is blocked but not
// finished, so only finishing counts.
func (r *Rig) Run() error {
	fx, _ := r.rt.(*core.Runtime)
	g, pump := r.spec.Govern, r.spec.Observe
	if g != nil && fx == nil {
		return fmt.Errorf("governor requires a FlexTM runtime, not %s", r.spec.System)
	}
	running := func() bool { return slices.ContainsFunc(r.workers, func(c *sim.Ctx) bool { return !c.Done() }) }
	if r.spec.Quantum > 0 && r.spec.Faults.Rates[fault.Preempt] > 0 {
		osmodel.New(r.Sys, fx).SpawnPreemptStorm(r.Engine, r.inj, r.spec.Quantum, r.workers, r.done)
		running = func() bool { return slices.Contains(r.done, false) }
	}
	if pump != nil {
		if g != nil {
			g.Bind(fx, len(r.workers))
			pump.SetAnnotator(g.Annotate)
		}
		pump.Bind(r.Sys.Telemetry(), r.Sys.Flight(), observatory.Meta{
			System: r.spec.System, Workload: r.spec.Workload,
			Threads: len(r.workers), Cores: r.spec.Machine.Cores,
		})
		r.every("observatory", pump.Interval(), running,
			func(now sim.Time) { pump.Tick(now) }, func(now sim.Time) { pump.Finish(now) })
		if g != nil {
			// At every shared instant the engine resumes equal-time threads
			// in spawn order, so the pump publishes frame k before the
			// governor reads it. The governor's mitigations are Go-side
			// flips: it consumes no randomness and issues no simulated
			// traffic.
			bus := pump.Bus()
			r.every("governor", pump.Interval(), running,
				func(sim.Time) { g.Observe(bus.Latest()) }, func(sim.Time) {})
		}
	}
	if blocked := r.Engine.Run(); blocked != 0 {
		return fmt.Errorf("%d threads blocked", blocked)
	}
	return nil
}

// every spawns a side thread that wakes every iv cycles of virtual time
// and calls tick, so it samples deterministically and never perturbs the
// workers' schedule. Once running reports false it wakes Spec.Tail more
// times (a calm tail of empty intervals), then calls last.
func (r *Rig) every(name string, iv sim.Time, running func() bool, tick, last func(now sim.Time)) {
	tail := r.spec.Tail
	r.Engine.Spawn(name, 0, func(ctx *sim.Ctx) {
		for {
			if !running() {
				if tail == 0 {
					break
				}
				tail--
			}
			ctx.Advance(iv)
			ctx.Sync()
			tick(ctx.Now())
		}
		last(ctx.Now())
	})
}
