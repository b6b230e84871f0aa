package harness

import (
	"fmt"
	"io"
	"slices"

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

// Figure4 regenerates the throughput/scalability study: every workload of
// Table 3(b) against its system set, normalized to 1-thread CGL. Workload
// Set 1 (Figure 4a-e) compares runtimes that all manage conflicts
// eagerly, as in the paper; Vacation (Figure 4f-g) compares CGL, FlexTM
// and TL2.
func Figure4(sc SweepConfig) ([]Plot, error) {
	fs := workloads.All()
	systems := make([][]SystemName, len(fs))
	for i, f := range fs {
		systems[i] = []SystemName{CGL, FlexTMEager, RTMF, RSTM}
		if f.Name == "Vacation-Low" || f.Name == "Vacation-High" {
			systems[i] = []SystemName{CGL, FlexTMEager, TL2}
		}
	}
	return sc.normalized("figure 4", fs, systems, CGL)
}

// Figure5 regenerates the eager-vs-lazy study on the four contended
// workloads (Figure 5a-d), normalized to 1-thread FlexTM(Eager).
func Figure5(sc SweepConfig) ([]Plot, error) {
	fs := factoriesOf("RBTree", "Vacation-High", "LFUCache", "RandomGraph")
	systems := make([][]SystemName, len(fs))
	for i := range fs {
		systems[i] = []SystemName{FlexTMEager, FlexTMLazy}
	}
	return sc.normalized("figure 5", fs, systems, FlexTMEager)
}

// HTMComparison is DESIGN.md's extension study: FlexTM in both modes
// against the LogTM and Bulk models on three workloads, normalized to
// 1-thread CGL as in Figure 4.
func HTMComparison(sc SweepConfig) ([]Plot, error) {
	fs := factoriesOf("RBTree", "RandomGraph", "HashTable")
	systems := make([][]SystemName, len(fs))
	for i := range fs {
		systems[i] = []SystemName{FlexTMEager, FlexTMLazy, LogTM, Bulk}
	}
	return sc.normalized("logtm", fs, systems, CGL)
}

// factoriesOf resolves workload names known to exist.
func factoriesOf(names ...string) []workloads.Factory {
	fs := make([]workloads.Factory, len(names))
	for i, name := range names {
		fs[i], _ = workloads.ByName(name)
	}
	return fs
}

// normalized is every normalized-throughput figure: each workload's
// points divided by its (base, 1-thread) throughput. The fold keeps the
// grid's raw throughputs and reads each base from the grid's own cell; only
// workloads whose grid lacks that cell (base is not among their systems, or
// sc.Threads has no 1) run it, in a phase of its own before the grid, with
// no instruments and unseen by OnResult. The points are divided once Grid
// returns. The FlexTM cells at 8 and 16 threads also fill the
// conflict-degree table.
func (sc SweepConfig) normalized(figure string, fs []workloads.Factory, systems [][]SystemName,
	base SystemName) ([]Plot, error) {
	one := slices.Index(sc.Threads, 1)
	bases := make([]float64, len(fs))
	var outside []int
	for w := range fs {
		if one < 0 || !slices.Contains(systems[w], base) {
			outside = append(outside, w)
		}
	}
	err := sweepexec.Map(sc.Exec(), len(outside),
		func(i int) (Result, error) {
			res, err := sc.RunCell(RunConfig{
				System: base, Workload: fs[outside[i]], Threads: 1, OpsPerThread: sc.Ops,
				Machine: sc.Machine, Verify: true,
			})
			if err != nil {
				return Result{}, fmt.Errorf("%s (%s): %s@1: %w", figure, fs[outside[i]].Name, base, err)
			}
			return res, nil
		},
		func(i int, res Result) error { bases[outside[i]] = res.Throughput; return nil })
	if err != nil {
		return nil, err
	}
	plots := make([]Plot, len(fs))
	for wi, f := range fs {
		plots[wi] = Plot{Workload: f.Name}
		for _, sys := range systems[wi] {
			plots[wi].Series = append(plots[wi].Series, Series{System: sys, Points: map[int]float64{}})
		}
	}
	err = sc.Grid(figure, fs, systems, func(c GridCell, res Result) error {
		plot := &plots[c.W]
		th := sc.Threads[c.T]
		sys := plot.Series[c.S].System
		plot.Series[c.S].Points[th] = res.Throughput
		if sys == base && c.T == one {
			bases[c.W] = res.Throughput
		}
		if sys == FlexTMEager || sys == FlexTMLazy {
			switch th {
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
	for wi := range plots {
		if bases[wi] == 0 {
			return nil, fmt.Errorf("%s (%s): zero %s@1 throughput", figure, fs[wi].Name, base)
		}
		for _, s := range plots[wi].Series {
			for th, tput := range s.Points {
				s.Points[th] = tput / bases[wi]
			}
		}
	}
	return plots, nil
}

// GridCell addresses one cell of a Grid: workload W, series S (the index
// into the workload's systems) and thread column T (the index into
// SweepConfig.Threads).
type GridCell struct{ W, S, T int }

// Grid runs the fs × systems × sc.Threads grid as one flat sweep through
// the sweep executor: workload-major, then system, then thread count, so
// every core stays busy across workload boundaries. Each cell carries the
// sweep's Metrics, Flight and Observe settings. OnResult and then emit see
// every cell in that serial order at any worker count, so a table folds or
// prints exactly as nested loops would. A failing cell's error names the
// figure, the workload and the cell.
func (sc SweepConfig) Grid(figure string, fs []workloads.Factory, systems [][]SystemName,
	emit func(GridCell, Result) error) error {
	var cells []GridCell
	for w := range fs {
		for s := range systems[w] {
			for t := range sc.Threads {
				cells = append(cells, GridCell{w, s, t})
			}
		}
	}
	return sweepexec.Map(sc.Exec(), len(cells),
		func(i int) (Result, error) {
			c := cells[i]
			sys, th := systems[c.W][c.S], sc.Threads[c.T]
			res, err := sc.RunCell(RunConfig{
				System: sys, Workload: fs[c.W], Threads: th, OpsPerThread: sc.Ops,
				Machine: sc.Machine, Verify: true, Metrics: sc.Metrics,
				Flight: sc.Flight, Observe: sc.Observe,
			})
			if err != nil {
				return Result{}, fmt.Errorf("%s (%s): %s@%d: %w", figure, fs[c.W].Name, sys, th, err)
			}
			return res, nil
		},
		func(i int, res Result) error {
			sc.observe(res)
			return emit(cells[i], res)
		})
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
// The two isolated runs and the shared-machine points are independent
// cells of one sweep, each yielding raw rates; every point is divided by
// the isolated rates once the sweep returns.
func Multiprogram(sc SweepConfig, f workloads.Factory, appThreads []int) ([]MultiprogramPoint, error) {
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
	// Cells 0 and 1 are the isolated runs: the app alone under
	// FlexTM(Eager) and the prime factorizer alone under CGL.
	rates := make([][2]float64, 2+len(cells))
	err := sweepexec.Map(sc.Exec(), len(rates),
		func(i int) ([2]float64, error) {
			switch i {
			case 0:
				r, err := isolatedThroughput(sc, FlexTMEager, f)
				return [2]float64{r}, err
			case 1:
				r, err := isolatedThroughput(sc, CGL, primeFactory())
				return [2]float64{r}, err
			}
			return multiprogramRun(sc, f, cells[i-2].mode, cells[i-2].at)
		},
		func(i int, r [2]float64) error { rates[i] = r; return nil })
	if err != nil {
		return nil, err
	}
	appBase, primeBase := rates[0][0], rates[1][0]
	points := make([]MultiprogramPoint, len(cells))
	for i, c := range cells {
		r := rates[2+i]
		points[i] = MultiprogramPoint{AppThreads: c.at, Mode: c.mode,
			AppNorm: r[0] / appBase, PrimeNorm: r[1] / primeBase}
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
// cache and returns its raw rates: app commits and prime factorizations
// per million cycles. The shared-machine contention run is deterministic,
// so the rates are a pure function of the key.
func multiprogramRun(sc SweepConfig, f workloads.Factory, mode SystemName, appThreads int) ([2]float64, error) {
	type key struct {
		Workload   string       `json:"workload"`
		Mode       SystemName   `json:"mode"`
		AppThreads int          `json:"appThreads"`
		Machine    tmesi.Config `json:"machine"`
		Ops        int          `json:"ops"`
	}
	return cellValue(sc.Cache, "multiprogram", key{f.Name, mode, appThreads, sc.Machine, sc.Ops},
		func() ([2]float64, error) { return multiprogramRunLive(sc, f, mode, appThreads) })
}

func multiprogramRunLive(sc SweepConfig, f workloads.Factory, mode SystemName, appThreads int) ([2]float64, error) {
	primeThreads := sc.Machine.Cores - appThreads
	r, err := rig.New(rig.Spec{Machine: sc.Machine})
	if err != nil {
		return [2]float64{}, err
	}
	sys := r.Sys
	env := &workloads.Env{Image: sys.Image(), Alloc: sys.Alloc(), Raw: sys.ReadWordRaw}

	app := f.New()
	app.Setup(env)
	prime := workloads.NewPrime()
	prime.Setup(env)

	rt, err := NewRuntime(mode, sys)
	if err != nil {
		return [2]float64{}, err
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
		return [2]float64{}, err
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
		return [2]float64{}, fmt.Errorf("harness: multiprogram run: %w", err)
	}

	var rates [2]float64
	if elapsed := float64(r.Engine.MaxTime()); elapsed > 0 {
		rates = [2]float64{
			float64(rt.Stats().Commits) / elapsed * 1e6,
			float64(prime.Completed(env)) / elapsed * 1e6,
		}
	}
	return rates, nil
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
