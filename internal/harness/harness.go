// Package harness runs the paper's experiments: it instantiates a machine,
// a TM runtime, and a workload, executes a fixed number of operations per
// thread, and reports throughput normalized to single-thread coarse-grain
// locks — the metric of Figures 4 and 5.
package harness

import (
	"cmp"
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
	"flextm/internal/rig"
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
		return rtmf.New(sys), nil
	case RSTM:
		return rstm.New(sys), nil
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
	// Faults, when any rate is non-zero, attaches a deterministic fault
	// injector to the machine. The schedule is a pure function of
	// (Faults.Seed, class, per-class sequence index), so identical configs
	// replay identical fault campaigns.
	Faults fault.Config
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
	res, _, err := run(rc)
	return res, err
}

// run is Run that also returns the machine it ran on.
func run(rc RunConfig) (Result, *tmesi.System, error) {
	if rc.Threads <= 0 || rc.Threads > rc.Machine.Cores {
		return Result{}, nil, fmt.Errorf("harness: %d threads on %d cores", rc.Threads, rc.Machine.Cores)
	}
	if rc.OpsPerThread < 0 || rc.WarmupOps < 0 {
		return Result{}, nil, fmt.Errorf("harness: negative op count (%d per thread, %d warm-up)", rc.OpsPerThread, rc.WarmupOps)
	}
	ops := cmp.Or(rc.OpsPerThread, DefaultOps)
	warmup := (cmp.Or(rc.WarmupOps, DefaultWarmup) + rc.Threads - 1) / rc.Threads
	w := rc.Workload.New()
	r, err := rig.New(rig.Spec{
		Machine: rc.Machine, System: string(rc.System), Workload: w.Name(),
		Metrics: rc.Metrics, Flight: rc.Flight, FlightPerCore: rc.FlightPerCore,
		Faults: rc.Faults, Oracle: rc.Oracle, Observe: rc.Observe, Govern: rc.Govern,
	})
	if err != nil {
		return Result{}, nil, fmt.Errorf("harness: %w", err)
	}
	sys := r.Sys
	rt, err := NewRuntime(rc.System, sys)
	if err != nil {
		return Result{}, nil, err
	}
	r.SetRuntime(rt)
	env := &workloads.Env{Image: sys.Image(), Alloc: sys.Alloc(), Raw: sys.ReadWordRaw}
	w.Setup(env)

	var workers []*sim.Ctx
	starts := make([]sim.Time, rc.Threads)
	ends := make([]sim.Time, rc.Threads)
	for i := 0; i < rc.Threads; i++ {
		coreID := i
		workers = append(workers, r.Spawn(fmt.Sprintf("%s-%d", w.Name(), i), func(ctx *sim.Ctx) {
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
	if err := r.Run(); err != nil {
		return Result{}, nil, fmt.Errorf("harness: %w", err)
	}
	if rc.Verify {
		if err := w.Verify(env); err != nil {
			return Result{}, nil, fmt.Errorf("harness: %s on %s failed verification: %w",
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
		System:      rc.System,
		Workload:    w.Name(),
		Threads:     rc.Threads,
		Commits:     st.Commits,
		Aborts:      st.Aborts,
		Cycles:      makespan,
		Machine:     sys.Stats(),
		Escalations: st.Escalations,
		Flight:      sys.Flight(),
	}
	if inj := r.Injector(); inj != nil {
		rep := inj.Report()
		res.FaultReport = &rep
	}
	if orc := r.Oracle(); orc != nil {
		res.OracleReport = orc.Check()
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
	return res, sys, nil
}
