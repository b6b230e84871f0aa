// Package harness runs the paper's experiments: it instantiates a machine,
// a TM runtime, and a workload, executes a fixed number of operations per
// thread, and reports throughput normalized to single-thread coarse-grain
// locks — the metric of Figures 4 and 5.
package harness

import (
	"fmt"

	"flextm/internal/baselines/bulk"
	"flextm/internal/baselines/cgl"
	"flextm/internal/baselines/logtm"
	"flextm/internal/baselines/rstm"
	"flextm/internal/baselines/rtmf"
	"flextm/internal/baselines/tl2"
	"flextm/internal/cm"
	"flextm/internal/core"
	"flextm/internal/fault"
	"flextm/internal/flight"
	"flextm/internal/governor"
	"flextm/internal/observatory"
	"flextm/internal/oracle"
	"flextm/internal/sim"
	"flextm/internal/telemetry"
	"flextm/internal/tmapi"
	"flextm/internal/tmesi"
	"flextm/internal/workloads"
)

// SystemName identifies a runtime configuration.
type SystemName string

// The systems of the paper's evaluation (Section 7.2).
const (
	CGL         SystemName = "CGL"
	FlexTMEager SystemName = "FlexTM(Eager)"
	FlexTMLazy  SystemName = "FlexTM(Lazy)"
	RTMF        SystemName = "RTM-F"
	RSTM        SystemName = "RSTM"
	TL2         SystemName = "TL2"
	// LogTM is an extension baseline (eager versioning, stall-based
	// conflicts, no remote aborts) for the FlexTM-vs-LogTM comparison.
	LogTM SystemName = "LogTM"
	// Bulk is an extension baseline (lazy with a global commit token and
	// write-signature broadcast) demonstrating the serialized-commit cost
	// FlexTM's CSTs remove.
	Bulk SystemName = "Bulk"
)

// NewRuntime builds the named runtime over sys. All contended systems use
// the Polka contention manager, as in the paper.
func NewRuntime(name SystemName, sys *tmesi.System) (tmapi.Runtime, error) {
	switch name {
	case CGL:
		return cgl.New(sys), nil
	case FlexTMEager:
		return core.New(sys, core.Eager, cm.NewPolka()), nil
	case FlexTMLazy:
		return core.New(sys, core.Lazy, cm.NewPolka()), nil
	case RTMF:
		return rtmf.New(sys, cm.NewPolka()), nil
	case RSTM:
		return rstm.New(sys, cm.NewPolka()), nil
	case TL2:
		return tl2.New(sys), nil
	case LogTM:
		return logtm.New(sys), nil
	case Bulk:
		return bulk.New(sys), nil
	}
	return nil, fmt.Errorf("harness: unknown system %q", name)
}

// RunConfig describes one data point.
type RunConfig struct {
	System       SystemName
	Workload     workloads.Factory
	Threads      int
	OpsPerThread int
	Machine      tmesi.Config
	Verify       bool
	// WarmupOps is the total untimed operation count, divided among the
	// threads, before the measured region (defaults to DefaultWarmup).
	WarmupOps int
	// Metrics attaches a telemetry registry to the machine before the run;
	// the run's counter snapshot is returned in Result.Telemetry. Off by
	// default: instrumentation sites then see a nil registry and pay only a
	// branch.
	Metrics bool
	// Flight attaches a flight recorder to the machine before the run; the
	// recorder (rings intact) is returned in Result.Flight for post-mortem
	// conflict-graph analysis. Off by default, like Metrics.
	Flight bool
	// FlightPerCore overrides the ring depth per core (0 selects
	// flight.DefaultPerCore).
	FlightPerCore int
	// YieldTo, if non-nil, is invoked by FlexTM threads when a transaction
	// aborts, before retrying (the multiprogramming experiment's
	// user-level yield).
	YieldTo func(th tmapi.Thread)
	// Faults, when any rate is non-zero, attaches a deterministic fault
	// injector to the machine. The schedule is a pure function of
	// (Faults.Seed, class, per-class sequence index), so identical configs
	// replay identical fault campaigns.
	Faults fault.Config
	// Liveness, if non-nil, overrides the FlexTM watchdog budgets (other
	// runtimes ignore it).
	Liveness *core.Liveness
	// Oracle attaches the serializability oracle (FlexTM systems only): the
	// run's operation log is checked offline and the verdict returned in
	// Result.OracleReport. Off by default — recording grows with the run.
	Oracle bool
	// Observe, if non-nil, attaches the observation plane: a snapshot pump
	// runs as its own simulated thread, sampling telemetry and the flight
	// recorder every pump interval of virtual time and publishing frames to
	// the pump's bus. Forces Metrics and Flight on — the pump has nothing to
	// observe without them. Observation never perturbs the workload threads'
	// schedule, so observed and unobserved runs produce identical results.
	Observe *observatory.Pump
	// Govern, if non-nil, attaches the resilience governor (FlexTM systems
	// only): it runs as its own simulated thread right behind the pump,
	// consuming each published frame and walking its mitigation ladder.
	// Forces observation on — a pump (and bus) are created when Observe is
	// nil. The governor's transitions are available on it after the run.
	Govern *governor.Governor
}

// DefaultOps is the per-thread operation count used by the paper-replica
// sweeps; it balances statistical stability with run time.
const DefaultOps = 300

// DefaultWarmup is the total untimed operation count (divided among the
// threads) run before the measured region. The paper warms the data
// structure before timing; a fixed *total* keeps cache warmth comparable
// across thread counts, so the timed region measures steady state at every
// point of a sweep.
const DefaultWarmup = 1024

// Result is the outcome of one run.
type Result struct {
	System   SystemName
	Workload string
	Threads  int

	Commits uint64
	Aborts  uint64
	Cycles  sim.Time
	// Throughput is transactions per million cycles (Figure 4's y-axis
	// before normalization).
	Throughput float64
	// MedianConflicts and MaxConflicts summarize the CST degree per
	// committed transaction (Figure 4's table; FlexTM only).
	MedianConflicts int
	MaxConflicts    int

	Machine tmesi.Stats

	// Telemetry is the run's per-mechanism counter snapshot; nil unless
	// RunConfig.Metrics was set.
	Telemetry *telemetry.Snapshot

	// Flight is the run's flight recorder, rings intact; nil unless
	// RunConfig.Flight was set. Snapshot + conflictgraph.Analyze turn it
	// into a contention profile.
	Flight *flight.Recorder

	// Escalations counts Atomic sections finished in serialized-irrevocable
	// fallback mode (FlexTM only).
	Escalations uint64
	// FaultReport summarizes injected faults; nil unless RunConfig.Faults
	// enabled any class.
	FaultReport *fault.Report

	// OracleReport is the serializability verdict over the run's operation
	// log; nil unless RunConfig.Oracle was set on a FlexTM system. A run
	// with violations is returned (not errored) so callers can print the
	// witness histories before deciding to fail.
	OracleReport *oracle.Report
}

// traceRecsPerOp is the flight-ring headroom a traced run reserves per
// operation. The busiest core writes at most about 23 records per
// operation (warm-up records included; RBTree, RandomGraph, LFUCache and
// Vacation-High at 16 threads); at fewer threads it writes fewer, and the
// DefaultPerCore floor absorbs the warm-up of short runs.
const traceRecsPerOp = 64

// TraceRingDepth is the flight ring depth per core that holds rc's whole
// lifecycle stream: traceRecsPerOp records per operation, floored at
// flight.DefaultPerCore.
func (rc RunConfig) TraceRingDepth() int {
	ops := rc.OpsPerThread
	if ops == 0 {
		ops = DefaultOps
	}
	return max(traceRecsPerOp*ops, flight.DefaultPerCore)
}

// Run executes one configuration and returns its result.
func Run(rc RunConfig) (Result, error) {
	if rc.Threads <= 0 || rc.Threads > rc.Machine.Cores {
		return Result{}, fmt.Errorf("harness: %d threads on %d cores", rc.Threads, rc.Machine.Cores)
	}
	ops := rc.OpsPerThread
	if ops == 0 {
		ops = DefaultOps
	}
	warmupTotal := rc.WarmupOps
	if warmupTotal == 0 {
		warmupTotal = DefaultWarmup
	}
	warmup := (warmupTotal + rc.Threads - 1) / rc.Threads
	if rc.Govern != nil && rc.Observe == nil {
		// The governor feeds on published frames; give it a private
		// observation plane when the caller did not attach one.
		rc.Observe = observatory.NewPump(observatory.Config{Bus: observatory.NewBus()})
	}
	if rc.Govern != nil && rc.Observe.Bus() == nil {
		return Result{}, fmt.Errorf("harness: governor requires a pump with a bus")
	}
	if rc.Observe != nil {
		rc.Metrics = true
		rc.Flight = true
	}
	sys := tmesi.New(rc.Machine)
	if rc.Metrics {
		// Attach before NewRuntime: the runtime captures the registry (and
		// the signatures switch into audit mode) at construction.
		sys.SetTelemetry(telemetry.New(rc.Machine.Cores))
	}
	if rc.Flight {
		// Attach before NewRuntime for the same reason as telemetry.
		sys.SetFlight(flight.New(rc.Machine.Cores, rc.FlightPerCore))
	}
	var inj *fault.Injector
	if rc.Faults.Any() {
		inj = fault.NewInjector(rc.Faults)
		sys.SetFaultInjector(inj)
	}
	rt, err := NewRuntime(rc.System, sys)
	if err != nil {
		return Result{}, err
	}
	var orc *oracle.Recorder
	if fx, ok := rt.(*core.Runtime); ok {
		if rc.YieldTo != nil {
			fx.OnAbortYield = func(th *core.Thread) { rc.YieldTo(th) }
		}
		if rc.Liveness != nil {
			fx.SetLiveness(*rc.Liveness)
		}
		if rc.Oracle {
			orc = oracle.NewRecorder()
			fx.SetOracle(orc)
		}
		if rc.Govern != nil {
			rc.Govern.Bind(fx, rc.Threads)
			rc.Observe.SetAnnotator(rc.Govern.Annotate)
		}
	} else if rc.Govern != nil {
		return Result{}, fmt.Errorf("harness: governor requires a FlexTM runtime, not %s", rc.System)
	}
	env := &workloads.Env{Image: sys.Image(), Alloc: sys.Alloc(), Raw: sys.ReadWordRaw}
	w := rc.Workload.New()
	w.Setup(env)

	e := sim.NewEngine()
	var workers []*sim.Ctx
	starts := make([]sim.Time, rc.Threads)
	ends := make([]sim.Time, rc.Threads)
	for i := 0; i < rc.Threads; i++ {
		coreID := i
		workers = append(workers, e.Spawn(fmt.Sprintf("%s-%d", w.Name(), i), 0, func(ctx *sim.Ctx) {
			th := rt.Bind(ctx, coreID)
			for j := 0; j < warmup; j++ {
				w.Op(th)
			}
			starts[coreID] = ctx.Now()
			for j := 0; j < ops; j++ {
				w.Op(th)
			}
			ends[coreID] = ctx.Now()
		}))
	}
	if rc.Observe != nil {
		rc.Observe.Bind(sys.Telemetry(), sys.Flight(), observatory.Meta{
			System:   string(rc.System),
			Workload: w.Name(),
			Threads:  rc.Threads,
			Cores:    rc.Machine.Cores,
		})
		// The pump is an ordinary simulated thread that advances in
		// interval-sized steps and samples whenever it holds the virtual
		// CPU, so sampling is deterministic and cannot perturb the workload
		// threads' schedule. It stops as soon as every worker has finished
		// (or blocked — a wedged run must not keep the engine alive).
		iv := rc.Observe.Interval()
		e.Spawn("observatory", 0, func(ctx *sim.Ctx) {
			for {
				live := false
				for _, wc := range workers {
					if !wc.Done() {
						live = true
						break
					}
				}
				if !live {
					break
				}
				ctx.Advance(iv)
				ctx.Sync()
				rc.Observe.Tick(ctx.Now())
			}
			rc.Observe.Finish(ctx.Now())
		})
	}
	if rc.Govern != nil {
		// The governor paces itself by the pump's interval and is spawned
		// after it: at every shared virtual instant the engine resumes
		// equal-time threads in spawn order, so the pump publishes frame k
		// before the governor reads it. Observe consumes no randomness and
		// issues no simulated traffic — every mitigation is a Go-side flip —
		// so a governed run's schedule diverges from the ungoverned one only
		// through the mitigations themselves.
		bus := rc.Observe.Bus()
		iv := rc.Observe.Interval()
		e.Spawn("governor", 0, func(ctx *sim.Ctx) {
			for {
				live := false
				for _, wc := range workers {
					if !wc.Done() {
						live = true
						break
					}
				}
				if !live {
					break
				}
				ctx.Advance(iv)
				ctx.Sync()
				rc.Govern.Observe(bus.Latest())
			}
		})
	}
	if blocked := e.Run(); blocked != 0 {
		return Result{}, fmt.Errorf("harness: %d threads blocked", blocked)
	}
	if rc.Verify {
		if err := w.Verify(env); err != nil {
			return Result{}, fmt.Errorf("harness: %s on %s failed verification: %w",
				w.Name(), rc.System, err)
		}
	}

	st := rt.Stats()
	// Makespan over the workload threads only: the observatory pump's clock
	// can overshoot the last worker by up to one interval, and observation
	// must not change the reported run length.
	var makespan sim.Time
	for _, wc := range workers {
		if wc.Now() > makespan {
			makespan = wc.Now()
		}
	}
	res := Result{
		System:   rc.System,
		Workload: w.Name(),
		Threads:  rc.Threads,
		Commits:  st.Commits,
		Aborts:   st.Aborts,
		Cycles:   makespan,
		Machine:  sys.Stats(),
	}
	res.Escalations = st.Escalations
	res.Flight = sys.Flight()
	if inj != nil {
		rep := inj.Report()
		res.FaultReport = &rep
	}
	if orc != nil {
		res.OracleReport = oracle.Check(orc.History(), oracle.Options{})
	}
	// System throughput: all timed transactions over the global window in
	// which they executed (first thread's timed start to last thread's
	// end). A fully serialized workload yields ~1x regardless of thread
	// count; a perfectly parallel one yields ~Nx.
	windowStart, windowEnd := starts[0], ends[0]
	for i := 1; i < rc.Threads; i++ {
		if starts[i] < windowStart {
			windowStart = starts[i]
		}
		if ends[i] > windowEnd {
			windowEnd = ends[i]
		}
	}
	if windowEnd > windowStart {
		res.Throughput = float64(rc.Threads*ops) / float64(windowEnd-windowStart) * 1e6
	}
	res.MedianConflicts, res.MaxConflicts = st.MedianMaxConflicts()
	if tel := sys.Telemetry(); tel != nil {
		snap := tel.Snapshot()
		res.Telemetry = &snap
	}
	return res, nil
}

// Baseline runs single-thread CGL for the workload and returns its
// throughput, the normalization basis of every plot.
func Baseline(w workloads.Factory, machine tmesi.Config, ops int) (float64, error) {
	res, err := Run(RunConfig{
		System: CGL, Workload: w, Threads: 1, OpsPerThread: ops,
		Machine: machine, Verify: true,
	})
	if err != nil {
		return 0, err
	}
	if res.Throughput == 0 {
		return 0, fmt.Errorf("harness: zero baseline throughput for %s", w.Name)
	}
	return res.Throughput, nil
}
