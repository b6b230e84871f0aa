// Command paperbench regenerates every table and figure of the paper's
// evaluation (Sections 6-8):
//
//	paperbench -fig 4         Figure 4  (throughput/scalability, 7 workloads)
//	paperbench -fig 5         Figure 5a-d (eager vs lazy)
//	paperbench -fig 5mp       Figure 5e,f (multiprogramming with Prime)
//	paperbench -fig overflow  Section 7.3 overflow/victim-buffer ablation
//	paperbench -fig sig       signature-width ablation (not in paper)
//	paperbench -fig cm        contention-manager ablation (not in paper)
//	paperbench -fig logtm     FlexTM vs LogTM- and Bulk-style HTMs (not in paper)
//	paperbench -fig causal    critical path vs makespan per cell (not in paper)
//	paperbench -fig chaos     fault-injection campaign (robustness, not in paper)
//	paperbench -fig govern    resilience-governor A/B: governed vs ungoverned
//	                          twins under randomized chaos (not in paper)
//	paperbench -fig oracle    serializability oracle: clean sweep must pass,
//	                          broken W-R variant must be caught (not in paper)
//	paperbench -table 2       Table 2 (area estimation)
//	paperbench -table 4       Table 4b (FlexWatcher slowdowns)
//	paperbench -all           everything
//
// -quick shrinks the sweep for a fast smoke run; -ops and -threads tune the
// full one. -metrics collects per-mechanism telemetry and prints a compact
// digest under each data point; -json emits one JSON object per data point
// on stdout (the human tables move to stderr); -trace-out FILE writes the
// attempt timeline of a dedicated flight-recorded run as Chrome trace_event
// JSON.
//
// Sweep cells run on GOMAXPROCS worker goroutines, a pool that
// internal/sweepexec alone sizes (GOMAXPROCS=1 gives a serial run), with
// results gathered in deterministic serial order, so every artifact —
// tables, -json stream, -bench-out, causal digests — is byte-identical at
// any worker count. -cache DIR keeps a content-addressed cell cache: a warm
// re-run replays every cell from disk without simulating (-cache-clear
// empties the store first). SIGINT stops the sweep at the next cell
// boundary, flushes the partial -bench-out artifact, and exits 130.
//
// Perf artifacts: -bench-out FILE records every data point of the selected
// figures into a canonical BENCH_*.json artifact (schema flextm-bench/v1,
// byte-stable because the simulator is deterministic), and
//
//	paperbench -compare OLD.json NEW.json
//
// flags regressions between two artifacts (throughput drops and abort-rate
// growth beyond -threshold, vanished cells, and schema version skew),
// exiting non-zero when any are found; metrics recorded in only one of the
// two artifacts are reported as gaps. TestFigure4Sweeps records the
// quick-sweep artifact and requires its cells to equal the checked-in
// baseline's.
//
// Observation (internal/observatory): -http ADDR serves the live
// observatory while the sweeps run, and
//
//	paperbench -quick -fig 4 -bench-out BENCH_pr.json -report report.html
//
// writes a self-contained HTML run report — per-interval time series,
// conflict graph, pathology verdicts, telemetry tables, and (when the
// -report-baseline artifact is readable) the BENCH comparison.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"

	"flextm/internal/area"
	"flextm/internal/benchfmt"
	"flextm/internal/causal"
	"flextm/internal/conflictgraph"
	"flextm/internal/core"
	"flextm/internal/fault"
	"flextm/internal/flexwatcher"
	"flextm/internal/harness"
	"flextm/internal/observatory"
	"flextm/internal/sim"
	"flextm/internal/stress"
	"flextm/internal/sweepexec"
	cellcache "flextm/internal/sweepexec/cache"
	"flextm/internal/telemetry"
	"flextm/internal/tmesi"
	"flextm/internal/workloads"
)

func main() {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	sig := make(chan os.Signal, 1)
	go func() {
		sig <- <-sigc
		// A second signal kills the process outright.
		signal.Stop(sigc)
	}()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sig))
}

// exitStatus is an error that only sets the exit status: whatever explains
// it is already printed.
type exitStatus int

func (s exitStatus) Error() string { return "exit status " + strconv.Itoa(int(s)) }

// run is paperbench with its arguments, output streams and signals passed
// in, returning the exit status: 0, 1 on a failed sweep or verdict, 2 on a
// usage error, 130 when a signal stopped the sweep.
func run(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) int {
	err := paperbench(args, stdout, stderr, sig)
	var status exitStatus
	switch {
	case err == nil:
		return 0
	case errors.As(err, &status):
		return int(status)
	case errors.Is(err, sweepexec.ErrStopped):
		fmt.Fprintln(stderr, "paperbench: interrupted")
		return 130
	}
	fmt.Fprintln(stderr, "paperbench:", err)
	return 1
}

// paper is what every figure step shares.
type paper struct {
	sc    harness.SweepConfig
	out   io.Writer     // the human tables: stdout, or stderr under -json
	enc   *json.Encoder // the -json stream on stdout; nil without -json
	quick bool
}

func paperbench(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) error {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "", "figure to regenerate: 4, 5, 5mp, overflow, sig, cm, logtm, chaos, govern, oracle, causal")
	table := fs.String("table", "", "table to regenerate: 2, 4")
	all := fs.Bool("all", false, "regenerate everything")
	quick := fs.Bool("quick", false, "small sweep for a fast smoke run")
	ops := fs.Int("ops", harness.DefaultOps, "operations per thread per data point")
	threadList := fs.String("threads", "1,2,4,8,16", "comma-separated thread counts")
	metrics := fs.Bool("metrics", false, "collect per-mechanism telemetry; print a compact digest per data point")
	jsonOut := fs.Bool("json", false, "emit one JSON object per data point on stdout; tables move to stderr")
	traceOut := fs.String("trace-out", "", "write the attempt timeline (kill arrows, critical-path track) of a dedicated FlexTM(Lazy) RBTree run to FILE as Chrome trace_event JSON")
	benchOut := fs.String("bench-out", "", "record every data point into a canonical BENCH_*.json perf artifact at FILE")
	benchLabel := fs.String("bench-label", "", "free-form label stored in the -bench-out artifact")
	compare := fs.Bool("compare", false, "compare two BENCH_*.json artifacts (paperbench -compare OLD NEW); exit non-zero on regressions")
	threshold := fs.Float64("threshold", 0.10, "relative worsening tolerated by -compare before a cell is flagged")
	httpAddr := fs.String("http", "", "serve the live observatory on ADDR while the sweeps run (/metrics, /snapshot.json, ...)")
	obsInterval := fs.Uint64("obs-interval", 0, "observation sampling interval in simulated cycles (0 = auto)")
	reportOut := fs.String("report", "", "write a self-contained HTML run report of a dedicated observed run to FILE")
	reportBaseline := fs.String("report-baseline", "BENCH_baseline.json", "baseline artifact for the -report BENCH comparison (section skipped when unreadable)")
	cacheDir := fs.String("cache", "", "content-addressed cell cache directory; hits replay cells without simulating")
	cacheClear := fs.Bool("cache-clear", false, "clear the -cache store before running")
	benchNotes := fs.String("bench-note", "", "comma-separated key=value notes stored in the -bench-out artifact")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return exitStatus(2)
	}

	if *compare {
		return compareArtifacts(stdout, fs.Args(), *threshold)
	}

	p := &paper{out: stdout, quick: *quick}
	if *jsonOut {
		p.out = stderr
		p.enc = json.NewEncoder(stdout)
	}
	sc := harness.SweepConfig{
		Machine: tmesi.DefaultConfig(),
		Ops:     *ops,
		Metrics: *metrics || *jsonOut,
	}
	if *cacheDir != "" {
		store, err := cellcache.Open(*cacheDir)
		if err != nil {
			return err
		}
		if *cacheClear {
			if err := store.Clear(); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "cell cache %s cleared\n", store.Dir())
		}
		sc.Cache = store
	} else if *cacheClear {
		return fmt.Errorf("-cache-clear needs -cache DIR")
	}
	// A signal closes the stop channel: in-flight cells finish, the sweep
	// returns sweepexec.ErrStopped, and the partial artifact is flushed
	// before the 130 exit.
	stop, done := make(chan struct{}), make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sig:
			close(stop)
		case <-done:
		}
	}()
	sc.Stop = stop
	var bench *benchfmt.Artifact
	if *benchOut != "" {
		// Artifact cells carry the attribution split and pathology summary,
		// so recording forces telemetry and the flight recorder on.
		sc.Metrics = true
		sc.Flight = true
		bench = benchfmt.New(*benchLabel, 0)
		for _, kv := range strings.Split(*benchNotes, ",") {
			if kv = strings.TrimSpace(kv); kv == "" {
				continue
			}
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("bad -bench-note %q: want key=value", kv)
			}
			if bench.Notes == nil {
				bench.Notes = map[string]string{}
			}
			bench.Notes[k] = v
		}
	}
	for _, part := range strings.Split(*threadList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return fmt.Errorf("bad -threads: %w", err)
		}
		sc.Threads = append(sc.Threads, n)
	}
	if *quick {
		sc.Threads = []int{1, 4, 16}
		sc.Ops = 80
	}
	if *httpAddr != "" {
		srv := observatory.NewServer()
		sc.Observe = observatory.NewPump(observatory.Config{
			Interval: sim.Time(*obsInterval), Readers: []func(*observatory.Frame){srv.Publish},
		})
		addr, err := srv.Start(*httpAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "observatory http://%s (/metrics /snapshot.json /conflictgraph.dot /flight /debug/pprof/)\n", addr)
	}

	// currentFig names the figure whose sweep is running, so bench-artifact
	// cells key on (figure, system, workload, threads). Cells may execute on
	// several workers, but results are always emitted — and OnResult fired —
	// on this goroutine in serial order, so a variable suffices.
	currentFig := ""
	var emitErr error
	sc.OnResult = func(res harness.Result) {
		if *metrics && res.Telemetry != nil {
			fmt.Fprintf(p.out, "  .. %s/%s@%d: %s\n",
				res.System, res.Workload, res.Threads, telemetry.Compact(*res.Telemetry))
		}
		if p.enc != nil && emitErr == nil {
			emitErr = p.enc.Encode(newJSONPoint(res))
		}
		if bench != nil {
			bench.Ops = sc.Ops
			bench.Add(newBenchCell(currentFig, res, sc.Machine.Cores))
		}
	}
	p.sc = sc

	// The steps run in this order whatever order the flags came in; fig
	// keys the bench-artifact cells of the steps that emit data points.
	ran := false
	for _, st := range []struct {
		on  bool
		fig string
		run func() error
	}{
		{*all || *fig == "4", "fig4", p.plots("Figure 4: throughput normalized to 1-thread CGL", harness.Figure4)},
		{*all || *fig == "5", "fig5", p.plots("Figure 5a-d: eager vs lazy, normalized to 1-thread FlexTM(Eager)", harness.Figure5)},
		{*all || *fig == "5mp", "fig5mp", p.figure5mp},
		{*all || *fig == "overflow", "overflow", p.overflow},
		{*all || *fig == "sig", "sig", p.sigAblation},
		{*all || *fig == "cm", "cm", p.cmAblation},
		{*all || *fig == "logtm", "logtm", p.logtmComparison},
		{*all || *fig == "chaos", "", p.chaosCampaign},
		{*all || *fig == "govern", "", p.governCampaign},
		{*all || *fig == "oracle", "", p.oracleSweep},
		{*all || *fig == "causal", "causal", p.causalFigure},
		{*all || *table == "2", "", p.table2},
		{*all || *table == "4", "", p.table4},
		{*traceOut != "", "timeline", func() error { return p.writeTimeline(*traceOut) }},
		{*reportOut != "", "report", func() error {
			return p.writeReport(*reportOut, *reportBaseline, bench, *threshold, sim.Time(*obsInterval))
		}},
	} {
		if !st.on {
			continue
		}
		ran = true
		currentFig = st.fig
		err := st.run()
		if err == nil {
			err = emitErr
		}
		if errors.Is(err, sweepexec.ErrStopped) && bench != nil {
			if werr := bench.WriteFile(*benchOut); werr != nil {
				fmt.Fprintln(stderr, "paperbench: partial artifact:", werr)
			} else {
				fmt.Fprintf(stderr, "== bench artifact (partial): %d cells -> %s ==\n", len(bench.Cells), *benchOut)
			}
		}
		if err != nil {
			return err
		}
	}
	if !ran && !*cacheClear {
		fs.Usage()
		return exitStatus(2)
	}
	if bench != nil {
		if err := bench.WriteFile(*benchOut); err != nil {
			return err
		}
		fmt.Fprintf(p.out, "== bench artifact: %d cells -> %s ==\n", len(bench.Cells), *benchOut)
	}
	if sc.Cache != nil {
		fmt.Fprintf(stderr, "cell %s\n", sc.Cache.Stats())
	}
	return nil
}

// writeReport runs one dedicated observed FlexTM(Lazy)/RBTree point at the
// sweep's largest thread count with a frame-collecting pump, then renders
// the run as a self-contained HTML report. When a bench artifact was
// recorded this invocation and the baseline artifact is readable, the
// report embeds their comparison.
func (p *paper) writeReport(path, baselinePath string, bench *benchfmt.Artifact, threshold float64, iv sim.Time) error {
	sc := p.sc
	threads := max(1, slices.Max(sc.Threads))
	if iv == 0 {
		// Finer than the watch default: the report's charts want a few dozen
		// points out of a single paper-scale run.
		iv = 20_000
	}
	f, _ := workloads.ByName("RBTree")
	var frames []*observatory.Frame
	pump := observatory.NewPump(observatory.Config{
		Interval: iv, Readers: []func(*observatory.Frame){func(f *observatory.Frame) { frames = append(frames, f) }},
	})
	res, err := harness.Run(harness.RunConfig{
		System: harness.FlexTMLazy, Workload: f, Threads: threads,
		OpsPerThread: sc.Ops, Machine: sc.Machine, Verify: true,
		Observe: pump,
		// Flight on with deep rings: the report's FlightQL drill-down
		// appendix queries the complete end-of-run stream. The depth is
		// a bound; the rings grow only as far as the run records.
		Flight: true, FlightPerCore: 1 << 17,
	})
	if err != nil {
		return err
	}
	if sc.OnResult != nil {
		sc.OnResult(res)
	}
	d := observatory.ReportData{
		Title:   fmt.Sprintf("FlexTM run report — %s / %s @ %d threads", res.System, res.Workload, res.Threads),
		Frames:  frames,
		Command: fmt.Sprintf("paperbench -report %s -ops %d", path, sc.Ops),
	}
	if fin := d.Final(); fin != nil {
		d.Meta = fin.Meta
	}
	if res.Flight != nil {
		d.FlightRecs = res.Flight.Snapshot()
	}
	if bench != nil {
		d.Bench = bench
		if base, err := benchfmt.ReadFile(baselinePath); err == nil {
			cres := benchfmt.Compare(base, bench, threshold)
			d.Compare = &cres
			d.BaselineLabel = baselinePath
		} else {
			fmt.Fprintf(p.out, "report: baseline %s unreadable, comparison section skipped (%v)\n", baselinePath, err)
		}
	}
	err = writeFile(path, func(w io.Writer) error { return observatory.WriteHTMLReport(w, d) })
	if err != nil {
		return err
	}
	fmt.Fprintf(p.out, "== report: %d frames from %s/%s@%d -> %s ==\n",
		len(d.Frames), res.System, res.Workload, res.Threads, path)
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// newBenchCell converts one sweep data point into an artifact cell.
func newBenchCell(figure string, res harness.Result, cores int) benchfmt.Cell {
	c := benchfmt.Cell{
		Figure:     figure,
		System:     string(res.System),
		Workload:   res.Workload,
		Threads:    res.Threads,
		Commits:    res.Commits,
		Aborts:     res.Aborts,
		Cycles:     uint64(res.Cycles),
		Throughput: res.Throughput,
	}
	if res.Commits > 0 {
		c.AbortRate = float64(res.Aborts) / float64(res.Commits)
	}
	if res.Telemetry != nil {
		a := res.Telemetry.Attribution()
		c.Attribution = &a
	}
	if res.Flight != nil {
		recs := res.Flight.Snapshot()
		rep := conflictgraph.Analyze(recs, conflictgraph.Options{Cores: cores})
		if counts := rep.PathologyCounts(); len(counts) > 0 {
			c.Pathologies = counts
		}
		if crep := causal.Analyze(recs, causal.Options{Cores: cores, TopBlame: 3}); crep != nil {
			cp := &benchfmt.CriticalPath{
				PathCycles: crep.PathCycles,
				Makespan:   uint64(crep.Makespan),
				Coverage:   crep.Coverage,
			}
			for _, b := range crep.Blame {
				cp.TopBlame = append(cp.TopBlame, benchfmt.BlameEntry{
					Line: uint64(b.Line), Cycles: b.Cycles, FPCycles: b.FPCycles,
				})
			}
			c.CriticalPath = cp
		}
	}
	return c
}

// compareArtifacts implements -compare OLD NEW. The flag package stops
// parsing at the first positional argument, so a trailing `-threshold X`
// (the natural way to type the command) arrives here rather than in the
// parsed flag — accept it instead of failing on arg count.
func compareArtifacts(w io.Writer, args []string, threshold float64) error {
	var paths []string
	for i := 0; i < len(args); i++ {
		if a := strings.TrimLeft(args[i], "-"); a != args[i] && a == "threshold" && i+1 < len(args) {
			v, err := strconv.ParseFloat(args[i+1], 64)
			if err != nil {
				return fmt.Errorf("-threshold %q: %v", args[i+1], err)
			}
			threshold = v
			i++
			continue
		}
		paths = append(paths, args[i])
	}
	args = paths
	if len(args) != 2 {
		return fmt.Errorf("-compare needs exactly two artifact paths, got %d", len(args))
	}
	oldArt, err := benchfmt.ReadFile(args[0])
	if err != nil {
		return err
	}
	newArt, err := benchfmt.ReadFile(args[1])
	if err != nil {
		return err
	}
	res := benchfmt.Compare(oldArt, newArt, threshold)
	res.Print(w)
	if !res.Ok() {
		return exitStatus(1)
	}
	return nil
}

// jsonPoint is the machine-readable form of one data point.
type jsonPoint struct {
	System          string                 `json:"system"`
	Workload        string                 `json:"workload"`
	Threads         int                    `json:"threads"`
	Commits         uint64                 `json:"commits"`
	Aborts          uint64                 `json:"aborts"`
	Cycles          uint64                 `json:"cycles"`
	Throughput      float64                `json:"throughput"`
	MedianConflicts int                    `json:"medianConflicts"`
	MaxConflicts    int                    `json:"maxConflicts"`
	Machine         tmesi.Stats            `json:"machine"`
	Telemetry       map[string]uint64      `json:"telemetry,omitempty"`
	Attribution     *telemetry.Attribution `json:"attribution,omitempty"`
}

func newJSONPoint(res harness.Result) jsonPoint {
	p := jsonPoint{
		System:          string(res.System),
		Workload:        res.Workload,
		Threads:         res.Threads,
		Commits:         res.Commits,
		Aborts:          res.Aborts,
		Cycles:          uint64(res.Cycles),
		Throughput:      res.Throughput,
		MedianConflicts: res.MedianConflicts,
		MaxConflicts:    res.MaxConflicts,
		Machine:         res.Machine,
	}
	if res.Telemetry != nil {
		p.Telemetry = res.Telemetry.Totals()
		a := res.Telemetry.Attribution()
		p.Attribution = &a
	}
	return p
}

// writeTimeline runs one flight-recorded FlexTM(Lazy) RBTree point at the
// sweep's largest thread count and dumps its causal attempt timeline as
// Chrome trace_event JSON.
func (p *paper) writeTimeline(path string) error {
	sc := p.sc
	threads := max(1, slices.Max(sc.Threads))
	f, _ := workloads.ByName("RBTree")
	rc := harness.RunConfig{
		System: harness.FlexTMLazy, Workload: f, Threads: threads,
		OpsPerThread: sc.Ops, Machine: sc.Machine, Verify: true,
		Metrics: sc.Metrics, Flight: true,
	}
	rc.FlightPerCore = rc.TraceRingDepth()
	res, err := harness.Run(rc)
	if err != nil {
		return err
	}
	if sc.OnResult != nil {
		sc.OnResult(res)
	}
	recs := res.Flight.Snapshot()
	rep := causal.Analyze(recs, causal.Options{Cores: sc.Machine.Cores})
	if err := writeFile(path, rep.WriteChrome); err != nil {
		return err
	}
	fmt.Fprintf(p.out, "== timeline: %d flight records from FlexTM(Lazy)/RBTree@%d -> %s ==\n",
		len(recs), threads, path)
	if n := res.Flight.Overwritten(); n > 0 {
		fmt.Fprintf(p.out, "WARNING: flight ring overwrote %d records; the timeline covers only the most recent window\n", n)
	}
	return nil
}

// plots is the step that runs a plotted figure and prints it under title.
func (p *paper) plots(title string, figure func(harness.SweepConfig) ([]harness.Plot, error)) func() error {
	return func() error {
		plots, err := figure(p.sc)
		if err != nil {
			return err
		}
		harness.PrintPlots(p.out, title, plots, p.sc.Threads)
		fmt.Fprintln(p.out)
		return nil
	}
}

func (p *paper) figure5mp() error {
	fmt.Fprintln(p.out, "== Figure 5e,f: multiprogramming with Prime (normalized to isolated 1-thread runs) ==")
	appThreads := []int{2, 4, 8, 12}
	for _, name := range []string{"RandomGraph", "LFUCache"} {
		f, _ := workloads.ByName(name)
		pts, err := harness.Multiprogram(p.sc, f, appThreads)
		if err != nil {
			return err
		}
		fmt.Fprintf(p.out, "\n[Prime + %s]\n%-16s %10s %10s %10s\n", name, "mode", "appThreads", "appNorm", "primeNorm")
		for _, pt := range pts {
			fmt.Fprintf(p.out, "%-16s %10d %10.2f %10.2f\n", pt.Mode, pt.AppThreads, pt.AppNorm, pt.PrimeNorm)
		}
	}
	fmt.Fprintln(p.out)
	return nil
}

func (p *paper) overflow() error {
	fmt.Fprintln(p.out, "== Section 7.3: overflow (OT) cost vs unbounded victim buffer ==")
	res, err := harness.OverflowAblation(p.sc, []string{"RandomGraph", "RBTree", "HashTable"}, 8)
	if err != nil {
		return err
	}
	fmt.Fprintf(p.out, "%-14s %10s %10s\n", "workload", "overflows", "slowdown")
	for _, r := range res {
		fmt.Fprintf(p.out, "%-14s %10d %9.2f%%\n", r.Workload, r.Overflows, (r.Slowdown-1)*100)
	}
	fmt.Fprintln(p.out)
	return nil
}

func (p *paper) sigAblation() error {
	fmt.Fprintln(p.out, "== Ablation: signature width (FlexTM(Lazy), Vacation-Low, 8 threads) ==")
	res, err := harness.SignatureAblation(p.sc, "Vacation-Low", 8, []int{256, 512, 1024, 2048, 4096})
	if err != nil {
		return err
	}
	fmt.Fprintf(p.out, "%-8s %14s %14s %14s %14s\n",
		"bits", "txn/Mcycle", "aborts/commit", "observed FP", "analytic FP")
	for _, r := range res {
		fmt.Fprintf(p.out, "%-8d %14.1f %14.2f %13.4f%% %13.4f%%\n",
			r.Bits, r.Throughput, r.AbortRate, r.ObservedFP*100, r.PredictedFP*100)
	}
	fmt.Fprintln(p.out)
	return nil
}

func (p *paper) cmAblation() error {
	fmt.Fprintln(p.out, "== Ablation: contention managers (RandomGraph, 8 threads) ==")
	res, err := harness.ManagerAblation(p.sc, "RandomGraph", 8)
	if err != nil {
		return err
	}
	fmt.Fprintf(p.out, "%-8s %-12s %14s %14s\n", "mode", "manager", "txn/Mcycle", "aborts/commit")
	for _, r := range res {
		fmt.Fprintf(p.out, "%-8s %-12s %14.1f %14.2f\n", r.Mode, r.Manager, r.Throughput, r.AbortRate)
	}
	fmt.Fprintln(p.out)
	return nil
}

// logtmComparison prints harness.HTMComparison, one table per workload.
func (p *paper) logtmComparison() error {
	plots, err := harness.HTMComparison(p.sc)
	if err != nil {
		return err
	}
	fmt.Fprintln(p.out, "== Extension: FlexTM vs alternative HTM designs (normalized to 1-thread CGL) ==")
	for _, pl := range plots {
		fmt.Fprintf(p.out, "\n[%s]\n%-16s", pl.Workload, "system")
		for _, th := range p.sc.Threads {
			fmt.Fprintf(p.out, "%8d", th)
		}
		fmt.Fprintln(p.out)
		for _, s := range pl.Series {
			fmt.Fprintf(p.out, "%-16s", s.System)
			for _, th := range p.sc.Threads {
				fmt.Fprintf(p.out, "%8.2f", s.Points[th])
			}
			fmt.Fprintln(p.out)
		}
	}
	fmt.Fprintln(p.out)
	return nil
}

// chaosCampaign sweeps every fault class x rate x mode, asserting the
// conservation/consistency/isolation invariants in every cell. The campaign
// is deterministic: same spec, same fault schedule, same table. Any
// violation makes the run exit non-zero.
func (p *paper) chaosCampaign() error {
	spec := harness.DefaultChaosSpec()
	if p.quick {
		spec.Threads = 5
		spec.Rounds = 25
		spec.Rates = []float64{0.10}
	}
	fmt.Fprintln(p.out, "== Chaos: fault-injection campaign (invariants under injected faults) ==")
	res := harness.ChaosCampaign(spec)
	fmt.Fprintf(p.out, "%-16s %6s %-6s %9s %8s %6s %6s %9s  %s\n",
		"class", "rate", "mode", "commits", "aborts", "escal", "trips", "injected", "verdict")
	for _, c := range res.Cells {
		verdict := "ok"
		if len(c.Violations) > 0 {
			verdict = strings.Join(c.Violations, "; ")
		}
		fmt.Fprintf(p.out, "%-16s %6.2f %-6s %9d %8d %6d %6d %9d  %s\n",
			c.Class, c.Rate, c.Mode, c.Commits, c.Aborts, c.Escalations,
			c.WatchdogTrips, c.Injected, verdict)
		if p.enc != nil {
			if err := p.enc.Encode(c); err != nil {
				return err
			}
		}
	}
	fmt.Fprintln(p.out)
	if !res.Ok() {
		return fmt.Errorf("chaos campaign: %d invariant violations", res.Violations)
	}
	return nil
}

// governCampaign is the closed-loop resilience A/B: a randomized governed
// chaos soak (harness.Soak) where every cell runs twice — with the governor
// and as an ungoverned twin — all oracle- and conservation-checked. The
// table contrasts the two sides per cell and reports the governor's
// transition count and final ladder level; non-convergence or any invariant
// violation exits non-zero.
func (p *paper) governCampaign() error {
	soak := harness.SoakConfig{Seed: 1}
	if p.quick {
		soak.Cells = 3
		soak.Rounds = 20
	}
	fmt.Fprintln(p.out, "== Govern: governed vs ungoverned twins under randomized chaos ==")
	res := harness.Soak(soak)
	fmt.Fprintf(p.out, "%-9s %8s %8s %6s | %8s %8s %6s | %5s %5s  %s\n",
		"cell", "commits", "aborts", "escal", "commits", "aborts", "escal", "steps", "level", "verdict")
	fmt.Fprintf(p.out, "%-9s %25s | %25s |\n", "", "governed", "ungoverned twin")
	for i, c := range res.Cells {
		verdict := "ok"
		if len(c.Failures) > 0 {
			verdict = strings.Join(c.Failures, "; ")
		}
		fmt.Fprintf(p.out, "%-9s %8d %8d %6d | %8d %8d %6d | %5d %5d  %s\n",
			fmt.Sprintf("soak-%d", i), c.Commits, c.Aborts, c.Escalations,
			c.TwinCommits, c.TwinAborts, c.TwinEscalations,
			c.GovTransitions, c.GovFinalLevel, verdict)
		fmt.Fprintf(p.out, "  schedule %s\n", c.Schedule)
		if p.enc != nil {
			if err := p.enc.Encode(c); err != nil {
				return err
			}
		}
	}
	fmt.Fprintln(p.out)
	if !res.Ok() {
		return fmt.Errorf("govern campaign: %d failed checks", res.Failures)
	}
	return nil
}

// oracleSweep is the serializability acceptance gate. Phase 1: a bounded
// seed sweep of the schedule explorer — both conflict-management modes, all
// seven fault classes, tiny cache forcing overflow-table commits — where the
// unmodified protocol must produce only serializable histories. Phase 2 is
// the sensitivity check: the same explorer over the intentionally broken
// variant (commit-time W-R aborts disabled, Figure 3 line 2 skipped) must
// detect a violation and shrink it to a minimal replayable schedule. A
// passing phase 2 is what certifies that phase 1's silence means something.
func (p *paper) oracleSweep() error {
	seeds := 16
	if p.quick {
		seeds = 4
	}
	fmt.Fprintln(p.out, "== Oracle: serializability under schedule exploration ==")
	var fc fault.Config
	for cl := fault.Class(0); cl < fault.NumClasses; cl++ {
		fc = fc.WithRate(cl, 0.05)
	}
	failed := false
	for _, mode := range []core.Mode{core.Eager, core.Lazy} {
		base := stress.DefaultConfig(1)
		base.Mode = mode
		base.TinyCache = true
		base.Faults = fc
		res := stress.Explore(base, seeds)
		verdict := "ok"
		if len(res.Failures) > 0 {
			failed = true
			verdict = fmt.Sprintf("%d FAILURES", len(res.Failures))
		}
		fmt.Fprintf(p.out, "%-8s %3d seeds x 7 fault classes: %s\n", mode, res.Runs, verdict)
		for _, f := range res.Failures {
			shrunk := stress.Shrink(f.Config, 64)
			fmt.Fprintf(p.out, "  schedule %s (shrunk from %s)\n", shrunk.Schedule, f.Schedule)
			if shrunk.RunErr != "" {
				fmt.Fprintln(p.out, "  run error:", shrunk.RunErr)
			}
			if shrunk.Report != nil {
				shrunk.Report.Print(p.out)
			}
		}
	}

	// Sensitivity: the broken variant must be caught.
	base := stress.DefaultConfig(1)
	base.Mode = core.Lazy
	base.BreakWR = true
	res := stress.Explore(base, 8)
	if len(res.Failures) == 0 {
		failed = true
		fmt.Fprintln(p.out, "broken W-R variant: NOT DETECTED (oracle is blind)")
	} else {
		shrunk := stress.Shrink(res.Failures[0].Config, 64)
		fmt.Fprintf(p.out, "broken W-R variant: detected in %d/%d seeds; shrunk witness %s\n",
			len(res.Failures), res.Runs, shrunk.Schedule)
		if shrunk.Report != nil {
			shrunk.Report.Print(p.out)
		}
		if !shrunk.Failed() {
			failed = true
			fmt.Fprintln(p.out, "broken W-R variant: shrink lost the failure")
		}
	}
	fmt.Fprintln(p.out)
	if failed {
		return fmt.Errorf("oracle sweep failed")
	}
	return nil
}

// causalFigure sweeps a contention-heavy pair of workloads over both
// conflict-management modes, reconstructing the attempt DAG of every cell
// and tabulating how much of its makespan the critical path explains and
// which lines that path blames. The cells land in the bench artifact (via
// OnResult / newBenchCell) with their criticalPath digests attached.
func (p *paper) causalFigure() error {
	sc := p.sc
	fmt.Fprintln(p.out, "== Causal: critical path vs makespan (top-3 blame lines per cell) ==")
	fmt.Fprintf(p.out, "%-14s %-14s %7s %12s %12s %8s  %s\n",
		"system", "workload", "threads", "path(cyc)", "makespan", "cover", "top blame (share of path)")
	rbtree, _ := workloads.ByName("RBTree")
	graph, _ := workloads.ByName("RandomGraph")
	fs := []workloads.Factory{rbtree, graph}
	systems := []harness.SystemName{harness.FlexTMEager, harness.FlexTMLazy}
	sc.Flight = true
	err := sc.Grid("causal", fs, [][]harness.SystemName{systems, systems}, func(_ harness.GridCell, res harness.Result) error {
		rep := causal.Analyze(res.Flight.Snapshot(),
			causal.Options{Cores: sc.Machine.Cores, TopBlame: 3})
		if rep == nil {
			return nil
		}
		blame := ""
		for i, b := range rep.Blame {
			if i > 0 {
				blame += "  "
			}
			blame += fmt.Sprintf("0x%x %.0f%%", b.Line, b.Share*100)
			if b.FPCycles > 0 {
				blame += fmt.Sprintf(" (fp %.0f%%)", float64(b.FPCycles)/float64(b.Cycles)*100)
			}
		}
		fmt.Fprintf(p.out, "%-14s %-14s %7d %12d %12d %7.1f%%  %s\n",
			res.System, res.Workload, res.Threads, rep.PathCycles,
			uint64(rep.Makespan), rep.Coverage*100, blame)
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(p.out)
	return nil
}

func (p *paper) table2() error {
	fmt.Fprintln(p.out, "== Table 2: area estimation (65nm) ==")
	fmt.Fprintln(p.out, area.Table())
	return nil
}

func (p *paper) table4() error {
	fmt.Fprintln(p.out, "== Table 4b: FlexWatcher vs Discover slowdowns ==")
	cfg := p.sc.Machine
	cfg.Cores = 2
	rows, err := flexwatcher.Table4(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(p.out, flexwatcher.PrintTable4(rows))
	fmt.Fprintln(p.out)
	return nil
}
