package harness

import (
	"fmt"
	"io"

	"flextm/internal/cache"
	"flextm/internal/cm"
	"flextm/internal/core"
	"flextm/internal/observatory"
	"flextm/internal/rig"
	"flextm/internal/signature"
	"flextm/internal/sim"
	"flextm/internal/sweepexec"
	cellcache "flextm/internal/sweepexec/cache"
	"flextm/internal/tmesi"
	"flextm/internal/workloads"
)

// Series is one curve of a plot: normalized throughput by thread count.
type Series struct {
	System SystemName
	Points map[int]float64
}

// Plot is one panel of Figure 4 or 5.
type Plot struct {
	Workload string
	Series   []Series
	// Conflict degree stats from the FlexTM runs (Figure 4's table).
	Md8, Mx8, Md16, Mx16 int
}

// SweepConfig parameterizes a figure regeneration.
type SweepConfig struct {
	Machine tmesi.Config
	Threads []int
	Ops     int
	// Metrics attaches a telemetry registry to every run of the sweep; each
	// Result then carries a counter snapshot.
	Metrics bool
	// Flight attaches a flight recorder to every run of the sweep; each
	// Result then carries the recorder for conflict-graph analysis.
	Flight bool
	// Observe, if non-nil, attaches the observation plane to every run of
	// the sweep (see RunConfig.Observe). The pump is re-bound per run, so a
	// subscriber sees the sweep as a sequence of runs, each ending in a
	// Final frame.
	Observe *observatory.Pump
	// OnResult, if non-nil, observes every data point as it completes
	// (paperbench uses it for machine-readable output). It is always called
	// from the sweeping goroutine, in the serial cell order, however many
	// workers run the cells (see Exec).
	OnResult func(Result)
	// Cache is the cell store consulted for every cacheable cell: hits
	// replay from the store instead of simulating (see
	// internal/sweepexec/cache). nil disables caching.
	Cache *cellcache.Store
	// Stop, when non-nil and closed, cancels the sweep between cells: the
	// figure function returns an error wrapping sweepexec.ErrStopped, with
	// every already-emitted result still delivered (the SIGINT
	// partial-artifact path).
	Stop <-chan struct{}
}

// observe forwards a finished data point to the sweep's observer.
func (sc SweepConfig) observe(res Result) {
	if sc.OnResult != nil {
		sc.OnResult(res)
	}
}

// DefaultSweep is the paper's sweep: 1..16 threads on the Table 3(a)
// machine.
func DefaultSweep() SweepConfig {
	return SweepConfig{
		Machine: tmesi.DefaultConfig(),
		Threads: []int{1, 2, 4, 8, 16},
		Ops:     DefaultOps,
	}
}

// ws1Systems are the runtimes compared on Workload-Set 1 (Figure 4a-e);
// all perform eager conflict management, as in the paper.
func ws1Systems() []SystemName { return []SystemName{CGL, FlexTMEager, RTMF, RSTM} }

// ws2Systems are the runtimes compared on Vacation (Figure 4f-g).
func ws2Systems() []SystemName { return []SystemName{CGL, FlexTMEager, TL2} }

// Figure4 regenerates the throughput/scalability study: every workload of
// Table 3(b) against its system set, normalized to 1-thread CGL. The
// baselines run as their own parallel phase, then the whole
// workload × system × threads grid is flattened into one sweep so every
// core stays busy across workload boundaries.
func Figure4(sc SweepConfig) ([]Plot, error) {
	fs := workloads.All()
	systems := make([][]SystemName, len(fs))
	for i, f := range fs {
		systems[i] = ws1Systems()
		if f.Name == "Vacation-Low" || f.Name == "Vacation-High" {
			systems[i] = ws2Systems()
		}
	}
	bases := make([]float64, len(fs))
	err := sweepexec.Map(sc.Exec(), len(fs),
		func(i int) (float64, error) {
			b, err := sc.baseline(fs[i])
			if err != nil {
				return 0, fmt.Errorf("figure 4 (%s): %w", fs[i].Name, err)
			}
			return b, nil
		},
		func(i int, b float64) error { bases[i] = b; return nil })
	if err != nil {
		return nil, err
	}
	return sweepGrid(sc, "figure 4", fs, systems, bases)
}

// Figure5 regenerates the eager-vs-lazy study on the four contended
// workloads (Figure 5a-d), normalized to 1-thread FlexTM(Eager).
func Figure5(sc SweepConfig) ([]Plot, error) {
	var fs []workloads.Factory
	for _, name := range []string{"RBTree", "Vacation-High", "LFUCache", "RandomGraph"} {
		f, _ := workloads.ByName(name)
		fs = append(fs, f)
	}
	systems := make([][]SystemName, len(fs))
	bases := make([]float64, len(fs))
	err := sweepexec.Map(sc.Exec(), len(fs),
		func(i int) (float64, error) {
			systems[i] = []SystemName{FlexTMEager, FlexTMLazy}
			res, err := sc.RunCell(RunConfig{
				System: FlexTMEager, Workload: fs[i], Threads: 1, OpsPerThread: sc.Ops,
				Machine: sc.Machine, Verify: true,
			})
			if err != nil {
				return 0, fmt.Errorf("figure 5 (%s): %w", fs[i].Name, err)
			}
			return res.Throughput, nil
		},
		func(i int, b float64) error { bases[i] = b; return nil })
	if err != nil {
		return nil, err
	}
	return sweepGrid(sc, "figure 5", fs, systems, bases)
}

// gridCell addresses one point of a flattened multi-workload sweep.
type gridCell struct {
	w   int // workload index
	s   int // series index within the workload's plot
	sys SystemName
	th  int
}

// sweepGrid runs the flattened workload × system × threads grid through
// the sweep executor. The fold — OnResult, normalized points, the
// conflict-degree table — happens in the emit callback, which sweepexec
// serializes in cell-index order, so the output is the serial loop's
// output at any worker count.
func sweepGrid(sc SweepConfig, figure string, fs []workloads.Factory, systems [][]SystemName, bases []float64) ([]Plot, error) {
	plots := make([]Plot, len(fs))
	var cells []gridCell
	for wi, f := range fs {
		plots[wi] = Plot{Workload: f.Name}
		for si, sysName := range systems[wi] {
			plots[wi].Series = append(plots[wi].Series, Series{System: sysName, Points: map[int]float64{}})
			for _, th := range sc.Threads {
				cells = append(cells, gridCell{wi, si, sysName, th})
			}
		}
	}
	err := sweepexec.Map(sc.Exec(), len(cells),
		func(i int) (Result, error) {
			c := cells[i]
			res, err := sc.RunCell(RunConfig{
				System: c.sys, Workload: fs[c.w], Threads: c.th, OpsPerThread: sc.Ops,
				Machine: sc.Machine, Verify: true, Metrics: sc.Metrics,
				Flight: sc.Flight, Observe: sc.Observe,
			})
			if err != nil {
				return Result{}, fmt.Errorf("%s (%s): %s@%d: %w", figure, fs[c.w].Name, c.sys, c.th, err)
			}
			return res, nil
		},
		func(i int, res Result) error {
			c := cells[i]
			sc.observe(res)
			plot := &plots[c.w]
			plot.Series[c.s].Points[c.th] = res.Throughput / bases[c.w]
			if c.sys == FlexTMEager || c.sys == FlexTMLazy {
				switch c.th {
				case 8:
					plot.Md8, plot.Mx8 = res.MedianConflicts, res.MaxConflicts
				case 16:
					plot.Md16, plot.Mx16 = res.MedianConflicts, res.MaxConflicts
				}
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return plots, nil
}

// MultiprogramPoint is one x-position of Figure 5(e)/(f): appThreads
// transactional threads share the machine with prime threads on the
// remaining cores; aborted transactions yield the CPU to prime chunks.
type MultiprogramPoint struct {
	AppThreads int
	Mode       SystemName
	// AppNorm is the app's throughput normalized to its 1-thread isolated
	// run; PrimeNorm likewise for the prime factorizer.
	AppNorm   float64
	PrimeNorm float64
}

// Multiprogram runs Figure 5(e)/(f) for the given transactional workload.
func Multiprogram(sc SweepConfig, f workloads.Factory, appThreads []int) ([]MultiprogramPoint, error) {
	// Isolated baselines: two independent cells, run as their own phase.
	type baseCell struct {
		system SystemName
		f      workloads.Factory
	}
	baseCells := []baseCell{
		{FlexTMEager, f},
		{CGL, primeFactory()},
	}
	bases := make([]float64, len(baseCells))
	err := sweepexec.Map(sc.Exec(), len(baseCells),
		func(i int) (float64, error) {
			return isolatedThroughput(sc, baseCells[i].system, baseCells[i].f)
		},
		func(i int, b float64) error { bases[i] = b; return nil })
	if err != nil {
		return nil, err
	}
	appBase, primeBase := bases[0], bases[1]

	type cell struct {
		mode SystemName
		at   int
	}
	var cells []cell
	for _, mode := range []SystemName{FlexTMEager, FlexTMLazy} {
		for _, at := range appThreads {
			cells = append(cells, cell{mode, at})
		}
	}
	points := make([]MultiprogramPoint, 0, len(cells))
	err = sweepexec.Map(sc.Exec(), len(cells),
		func(i int) (MultiprogramPoint, error) {
			c := cells[i]
			return multiprogramRun(sc, f, c.mode, c.at, appBase, primeBase)
		},
		func(i int, p MultiprogramPoint) error { points = append(points, p); return nil })
	if err != nil {
		return nil, err
	}
	return points, nil
}

// primeFactory wraps the prime factorizer (the multiprogramming
// experiment's background job) as a workload factory.
func primeFactory() workloads.Factory {
	return workloads.Factory{Name: "Prime", New: func() workloads.Workload { return workloads.NewPrime() }}
}

// isolatedThroughput runs one thread of the workload alone on the machine
// (through the cell cache).
func isolatedThroughput(sc SweepConfig, system SystemName, f workloads.Factory) (float64, error) {
	type key struct {
		System   SystemName   `json:"system"`
		Workload string       `json:"workload"`
		Machine  tmesi.Config `json:"machine"`
		Ops      int          `json:"ops"`
	}
	return cellValue(sc.Cache, "isolated", key{system, f.Name, sc.Machine, sc.Ops}, func() (float64, error) {
		r, err := rig.New(rig.Spec{Machine: sc.Machine})
		if err != nil {
			return 0, err
		}
		rt, err := NewRuntime(system, r.Sys)
		if err != nil {
			return 0, err
		}
		w := f.New()
		env := &workloads.Env{Image: r.Sys.Image(), Alloc: r.Sys.Alloc(), Raw: r.Sys.ReadWordRaw}
		w.Setup(env)
		r.Spawn(w.Name(), func(ctx *sim.Ctx) {
			th := rt.Bind(ctx, 0)
			for j := 0; j < sc.Ops; j++ {
				w.Op(th)
			}
		})
		if err := r.Run(); err != nil {
			return 0, fmt.Errorf("harness: isolated run: %w", err)
		}
		return float64(sc.Ops) / float64(r.Engine.MaxTime()) * 1e6, nil
	})
}

// multiprogramRun runs one (mode, appThreads) point through the cell
// cache; the shared-machine contention run itself is deterministic, so the
// point is a pure function of the key.
func multiprogramRun(sc SweepConfig, f workloads.Factory, mode SystemName, appThreads int,
	appBase, primeBase float64) (MultiprogramPoint, error) {
	type key struct {
		Workload   string       `json:"workload"`
		Mode       SystemName   `json:"mode"`
		AppThreads int          `json:"appThreads"`
		Machine    tmesi.Config `json:"machine"`
		Ops        int          `json:"ops"`
		AppBase    float64      `json:"appBase"`
		PrimeBase  float64      `json:"primeBase"`
	}
	return cellValue(sc.Cache, "multiprogram",
		key{f.Name, mode, appThreads, sc.Machine, sc.Ops, appBase, primeBase},
		func() (MultiprogramPoint, error) {
			return multiprogramRunLive(sc, f, mode, appThreads, appBase, primeBase)
		})
}

func multiprogramRunLive(sc SweepConfig, f workloads.Factory, mode SystemName, appThreads int,
	appBase, primeBase float64) (MultiprogramPoint, error) {

	primeThreads := sc.Machine.Cores - appThreads
	r, err := rig.New(rig.Spec{Machine: sc.Machine})
	if err != nil {
		return MultiprogramPoint{}, err
	}
	sys := r.Sys
	env := &workloads.Env{Image: sys.Image(), Alloc: sys.Alloc(), Raw: sys.ReadWordRaw}

	app := f.New()
	app.Setup(env)
	prime := workloads.NewPrime()
	prime.Setup(env)

	rt, err := NewRuntime(mode, sys)
	if err != nil {
		return MultiprogramPoint{}, err
	}
	// Yield-on-abort: a doomed transaction donates a prime chunk before
	// retrying (the paper's user-level schedule control). Eager management
	// detects doomed transactions earlier, so the chunk displaces fewer
	// wasted cycles and more total prime work fits in the same wall clock.
	if fx, ok := rt.(*core.Runtime); ok {
		fx.OnAbortYield = func(th *core.Thread) { prime.Chunk(th) }
	}
	primeRT, err := NewRuntime(CGL, sys)
	if err != nil {
		return MultiprogramPoint{}, err
	}

	// Fixed wall clock: every thread loops until the deadline, so the
	// metric is work completed per unit time, as in the paper's plots.
	deadline := sim.Time(sc.Ops) * multiprogramCyclesPerOp
	for i := 0; i < appThreads; i++ {
		id := i
		r.Spawn("app", func(ctx *sim.Ctx) {
			th := rt.Bind(ctx, id)
			for ctx.Now() < deadline {
				app.Op(th)
			}
		})
	}
	for i := 0; i < primeThreads; i++ {
		id := i
		r.Spawn("prime", func(ctx *sim.Ctx) {
			th := primeRT.Bind(ctx, appThreads+id)
			for ctx.Now() < deadline {
				prime.Op(th)
			}
		})
	}
	if err := r.Run(); err != nil {
		return MultiprogramPoint{}, fmt.Errorf("harness: multiprogram run: %w", err)
	}

	pt := MultiprogramPoint{AppThreads: appThreads, Mode: mode}
	elapsed := float64(r.Engine.MaxTime())
	if elapsed > 0 {
		pt.AppNorm = float64(rt.Stats().Commits) / elapsed * 1e6 / appBase
		pt.PrimeNorm = float64(prime.Completed(env)) / elapsed * 1e6 / primeBase
	}
	return pt, nil
}

// multiprogramCyclesPerOp scales the multiprogramming deadline from the
// sweep's per-thread op budget.
const multiprogramCyclesPerOp = 2000

// OverflowAblation compares bounded (32-entry victim buffer) against
// unbounded victim buffering, reproducing the Section 7.3 experiment: the
// redo-log/OT path should cost a few percent on workloads that overflow.
type OverflowResult struct {
	Workload  string
	Overflows uint64
	// Slowdown is unbounded-buffer throughput divided by bounded (>= 1
	// means the OT path costs something).
	Slowdown float64
}

// OverflowAblation runs the comparison on the given workloads with an L1
// small enough to force set-conflict evictions of speculative lines. Each
// workload contributes two grid cells (bounded, then ideal), emitted in
// that order.
func OverflowAblation(sc SweepConfig, names []string, threads int) ([]OverflowResult, error) {
	small := sc.Machine
	small.L1 = cache.Config{Sets: 16, Ways: 2, VictimSize: 8}
	unbounded := small
	unbounded.L1.UnboundedTMIVictim = true // ideal: infinite speculative buffer

	fs := make([]workloads.Factory, len(names))
	for i, name := range names {
		f, ok := workloads.ByName(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown workload %q", name)
		}
		fs[i] = f
	}
	out := make([]OverflowResult, 0, len(names))
	bounded := make([]Result, len(names))
	err := sweepexec.Map(sc.Exec(), 2*len(names),
		func(i int) (Result, error) {
			machine := small
			if i%2 == 1 {
				machine = unbounded
			}
			return sc.RunCell(RunConfig{
				System: FlexTMLazy, Workload: fs[i/2], Threads: threads,
				OpsPerThread: sc.Ops, Machine: machine, Verify: true,
				Metrics: sc.Metrics, Flight: sc.Flight, Observe: sc.Observe,
			})
		},
		func(i int, res Result) error {
			sc.observe(res)
			if i%2 == 0 {
				bounded[i/2] = res
				return nil
			}
			b := bounded[i/2]
			r := OverflowResult{Workload: names[i/2], Overflows: b.Machine.Overflows}
			if b.Throughput > 0 {
				r.Slowdown = res.Throughput / b.Throughput
			}
			out = append(out, r)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PrintPlots writes plots as aligned text tables.
func PrintPlots(w io.Writer, title string, plots []Plot, threads []int) {
	fmt.Fprintf(w, "== %s ==\n", title)
	for _, p := range plots {
		fmt.Fprintf(w, "\n[%s] normalized throughput (x = threads)\n", p.Workload)
		fmt.Fprintf(w, "%-16s", "system")
		for _, th := range threads {
			fmt.Fprintf(w, "%8d", th)
		}
		fmt.Fprintln(w)
		for _, s := range p.Series {
			fmt.Fprintf(w, "%-16s", s.System)
			for _, th := range threads {
				fmt.Fprintf(w, "%8.2f", s.Points[th])
			}
			fmt.Fprintln(w)
		}
		if p.Mx8 != 0 || p.Mx16 != 0 || p.Md8 != 0 || p.Md16 != 0 {
			fmt.Fprintf(w, "conflicting txns: 8T md=%d mx=%d  16T md=%d mx=%d\n",
				p.Md8, p.Mx8, p.Md16, p.Mx16)
		}
	}
}

// SigResult is one point of the signature-width ablation: narrower Bloom
// filters alias more lines, producing false conflicts and extra aborts.
type SigResult struct {
	Bits       int
	Throughput float64
	AbortRate  float64
	// ObservedFP is the run's empirical false-positive rate over all
	// membership tests whose ground truth was negative; PredictedFP is the
	// analytic signature.FalsePositiveRate averaged over the same tests.
	ObservedFP  float64
	PredictedFP float64
}

// SignatureAblation sweeps the signature width for FlexTM(Lazy) on the
// given workload (a DESIGN.md extension experiment; the paper fixes the
// width at 2048 bits after Sanchez et al.). Telemetry is always on here:
// the audit-mode signatures provide the ground truth that splits probe
// hits into true conflicts and Bloom aliasing.
func SignatureAblation(sc SweepConfig, name string, threads int, widths []int) ([]SigResult, error) {
	f, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("harness: unknown workload %q", name)
	}
	out := make([]SigResult, 0, len(widths))
	err := sweepexec.Map(sc.Exec(), len(widths),
		func(i int) (Result, error) {
			machine := sc.Machine
			machine.Sig = signature.Config{Bits: widths[i], Banks: 4}
			res, err := sc.RunCell(RunConfig{
				System: FlexTMLazy, Workload: f, Threads: threads,
				OpsPerThread: sc.Ops, Machine: machine, Verify: true,
				Metrics: true, Flight: sc.Flight, Observe: sc.Observe,
			})
			if err != nil {
				return Result{}, fmt.Errorf("sig width %d: %w", widths[i], err)
			}
			return res, nil
		},
		func(i int, res Result) error {
			sc.observe(res)
			r := SigResult{
				Bits:       widths[i],
				Throughput: res.Throughput,
				AbortRate:  float64(res.Aborts) / float64(res.Commits),
			}
			if res.Telemetry != nil {
				r.ObservedFP, r.PredictedFP = res.Telemetry.SigFPRates()
			}
			out = append(out, r)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ManagerResult is one point of the contention-manager ablation.
type ManagerResult struct {
	Manager    string
	Mode       string
	Throughput float64
	AbortRate  float64
}

// newManager constructs one of the ablation's contention managers by
// name. Fresh construction per cell (managers are stateless parameter
// structs) keeps cells independent, so they shard and cache cleanly.
func newManager(name string) (cm.Manager, error) {
	switch name {
	case "Polka":
		return cm.NewPolka(), nil
	case "Karma":
		return cm.NewKarma(), nil
	case "Greedy":
		return cm.NewGreedy(), nil
	case "Timestamp":
		return cm.NewTimestamp(), nil
	case "Timid":
		return cm.Timid{}, nil
	case "Aggressive":
		return cm.Aggressive{}, nil
	}
	return nil, fmt.Errorf("harness: unknown contention manager %q", name)
}

// managerNames is the ablation's roster, in table order.
func managerNames() []string {
	return []string{"Polka", "Karma", "Greedy", "Timestamp", "Timid", "Aggressive"}
}

// ManagerAblation compares contention managers on a contended workload in
// eager mode, where arbitration policy matters most.
func ManagerAblation(sc SweepConfig, name string, threads int) ([]ManagerResult, error) {
	f, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("harness: unknown workload %q", name)
	}
	type cell struct {
		mode core.Mode
		mgr  string
	}
	var cells []cell
	for _, mode := range []core.Mode{core.Eager, core.Lazy} {
		for _, mgr := range managerNames() {
			cells = append(cells, cell{mode, mgr})
		}
	}
	out := make([]ManagerResult, 0, len(cells))
	err := sweepexec.Map(sc.Exec(), len(cells),
		func(i int) (ManagerResult, error) {
			return runManagerCell(sc, f, cells[i].mode, cells[i].mgr, threads)
		},
		func(i int, r ManagerResult) error { out = append(out, r); return nil })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runManagerCell runs one (mode, manager) cell through the cell cache.
func runManagerCell(sc SweepConfig, f workloads.Factory, mode core.Mode, mgrName string, threads int) (ManagerResult, error) {
	type key struct {
		Workload string       `json:"workload"`
		Mode     string       `json:"mode"`
		Manager  string       `json:"manager"`
		Threads  int          `json:"threads"`
		Machine  tmesi.Config `json:"machine"`
		Ops      int          `json:"ops"`
	}
	return cellValue(sc.Cache, "manager",
		key{f.Name, mode.String(), mgrName, threads, sc.Machine, sc.Ops},
		func() (ManagerResult, error) {
			mgr, err := newManager(mgrName)
			if err != nil {
				return ManagerResult{}, err
			}
			r, err := rig.New(rig.Spec{Machine: sc.Machine})
			if err != nil {
				return ManagerResult{}, err
			}
			rt := core.New(r.Sys, mode, mgr)
			env := &workloads.Env{Image: r.Sys.Image(), Alloc: r.Sys.Alloc(), Raw: r.Sys.ReadWordRaw}
			w := f.New()
			w.Setup(env)
			spans := make([]sim.Time, threads)
			for i := 0; i < threads; i++ {
				id := i
				r.Spawn("w", func(ctx *sim.Ctx) {
					th := rt.Bind(ctx, id)
					for j := 0; j < DefaultWarmup; j++ {
						w.Op(th)
					}
					start := ctx.Now()
					for j := 0; j < sc.Ops; j++ {
						w.Op(th)
					}
					spans[id] = ctx.Now() - start
				})
			}
			if err := r.Run(); err != nil {
				return ManagerResult{}, fmt.Errorf("manager ablation: %w", err)
			}
			if err := w.Verify(env); err != nil {
				return ManagerResult{}, fmt.Errorf("%s/%s: %w", mode, mgr.Name(), err)
			}
			res := ManagerResult{Manager: mgr.Name(), Mode: mode.String()}
			for _, d := range spans {
				if d > 0 {
					res.Throughput += float64(sc.Ops) / float64(d) * 1e6
				}
			}
			st := rt.Stats()
			res.AbortRate = float64(st.Aborts) / float64(st.Commits)
			return res, nil
		})
}
