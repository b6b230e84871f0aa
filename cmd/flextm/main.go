// Command flextm runs a single experiment: one workload on one TM system at
// one thread count, printing throughput, abort rates, conflict degrees, and
// machine counters.
//
//	flextm -workload RBTree -system 'FlexTM(Lazy)' -threads 8 -ops 500
//	flextm -workload RBTree -faults 'commit-race:0.3,alert-loss:0.1' -fault-seed 7
//	flextm -workload LFUCache -threads 16 -profile
//	flextm -workload RBTree -profile -profile-dot graph.dot -profile-json profile.json
//	flextm -list
//
// Live observation (internal/observatory):
//
//	flextm -workload RBTree -threads 16 -http :8080    serve /metrics, /snapshot.json,
//	                                                   /conflictgraph.dot, /flight, pprof
//	flextm -workload RBTree -threads 16 -watch         one line per interval + sparklines
//	flextm -livelock -watch                            watch an abort cycle surface live
//
// When an observed run (or one writing artifacts) receives SIGINT/SIGQUIT,
// the next pump tick flushes partial artifacts — flight-recorder profile,
// telemetry tables, the windowed attempt timeline — before exiting 130.
//
// Serializability oracle (internal/oracle + internal/stress):
//
//	flextm -workload RBTree -oracle            oracle-check the workload run
//	flextm -stress 32 -seed 1                  explore 32 stress seeds
//	flextm -stress 8 -broken                   broken protocol: must fail
//	flextm -schedule 's1,t2,r3,o1,a2,lazy'     replay one stress schedule
//
// Stress and replay runs exit non-zero on any serializability violation
// (unless -broken asked for one, where finding it is the success).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"flextm/internal/causal"
	"flextm/internal/conflictgraph"
	"flextm/internal/core"
	"flextm/internal/fault"
	"flextm/internal/flight"
	"flextm/internal/flightql"
	"flextm/internal/governor"
	"flextm/internal/harness"
	"flextm/internal/observatory"
	"flextm/internal/sim"
	"flextm/internal/stress"
	"flextm/internal/tmesi"
	"flextm/internal/workloads"
)

func main() {
	workload := flag.String("workload", "RBTree", "workload name (see -list)")
	system := flag.String("system", "FlexTM(Lazy)", "TM system: CGL, FlexTM(Eager), FlexTM(Lazy), RTM-F, RSTM, TL2")
	threads := flag.Int("threads", 8, "number of threads (<= cores)")
	ops := flag.Int("ops", harness.DefaultOps, "operations per thread")
	cores := flag.Int("cores", 16, "cores in the simulated CMP")
	verify := flag.Bool("verify", true, "check structural invariants after the run")
	traceStats := flag.Bool("tracestats", false, "print a transaction-level trace summary folded from the flight recorder (FlexTM systems)")
	metrics := flag.Bool("metrics", false, "collect per-mechanism telemetry and print counter + cycle-attribution tables")
	traceOut := flag.String("trace-out", "", "write the per-core attempt timeline, with kill arrows and a critical-path track, as Chrome trace_event JSON to FILE (open in chrome://tracing or Perfetto)")
	faults := flag.String("faults", "", "fault injection spec, e.g. 'commit-race:0.3,alert-loss:0.1' or 'all:0.05' (classes: "+faultClassList()+")")
	faultSeed := flag.Uint64("fault-seed", 1, "fault-schedule seed; same seed + config replays the identical campaign")
	profile := flag.Bool("profile", false, "record a flight-recorder history and print the conflict-graph contention profile")
	profileDOT := flag.String("profile-dot", "", "write the conflict graph in Graphviz DOT form to FILE (implies -profile)")
	profileJSON := flag.String("profile-json", "", "write the full conflict-graph report as JSON to FILE (implies -profile)")
	causalOn := flag.Bool("causal", false, "reconstruct the attempt DAG and print the makespan critical path with per-line blame")
	causalJSON := flag.String("causal-json", "", "write the causal report (critical path, blame, wasted-work ledger) as JSON to FILE (implies -causal)")
	causalDOT := flag.String("causal-dot", "", "write the critical path in Graphviz DOT form to FILE (implies -causal)")
	oracleOn := flag.Bool("oracle", false, "attach the serializability oracle to the run and print its verdict (FlexTM systems)")
	stressN := flag.Int("stress", 0, "run N seeds of the oracle-checked stress explorer instead of a workload")
	stressParallel := flag.Int("parallel", 1, "with -stress: worker goroutines for the explorer (1 = serial, 0 = all CPUs); results identical to serial")
	seed := flag.Uint64("seed", 1, "base seed for -stress")
	broken := flag.Bool("broken", false, "with -stress: disable the commit-time W-R aborts (the oracle must catch the break)")
	schedule := flag.String("schedule", "", "replay one stress schedule string (as printed by -stress failures)")
	list := flag.Bool("list", false, "list workloads and exit")
	httpAddr := flag.String("http", "", "serve the live observatory on ADDR (e.g. :8080): /metrics, /snapshot.json, /conflictgraph.dot, /flight, /debug/pprof/")
	watch := flag.Bool("watch", false, "print one digest line per sampling interval, with sparkline trends and live pathology flags")
	obsInterval := flag.Uint64("obs-interval", 0, "observation sampling interval in simulated cycles (0 = auto)")
	linger := flag.Duration("linger", 0, "keep the -http server up for DUR after the run ends (scrape window)")
	livelock := flag.Bool("livelock", false, "run the dueling-livelock probe instead of a workload (pairs with -watch)")
	govern := flag.Bool("govern", false, "attach the closed-loop resilience governor (FlexTM systems; with -livelock the probe must self-heal)")
	governLadder := flag.String("govern-ladder", "", "governor mitigation ladder spec, e.g. 'cm:Polka,backoff:3,admit:auto,sig:4,serialize' (default: built-in ladder)")
	governLog := flag.String("govern-log", "", "write the governor transition log to FILE after the run")
	var queryExprs queryList
	flag.Var(&queryExprs, "query", "FlightQL query over the run's flight records (repeatable), e.g. 'filter kind == cm-stall | group by line agg sum(dur) | top 5 by sum(dur)'; implies the flight recorder")
	queryOut := flag.String("query-out", "", "write all -query results as one canonical JSON document to FILE (byte-stable per seed)")
	flag.Parse()
	if *stressParallel < 0 {
		fmt.Fprintln(os.Stderr, "flextm: -parallel must be >= 0")
		flag.Usage()
		os.Exit(2)
	}
	if *profileDOT != "" || *profileJSON != "" {
		*profile = true
	}
	if *causalJSON != "" || *causalDOT != "" {
		*causalOn = true
	}
	causalCfg := causalArtifacts{on: *causalOn, jsonPath: *causalJSON, dotPath: *causalDOT}
	// Parse every query up front: a typo should fail before a long run, not
	// after it.
	queryCfg, err := newQueryConfig(queryExprs, *queryOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flextm:", err)
		os.Exit(2)
	}

	if *list {
		for _, f := range workloads.All() {
			fmt.Println(f.Name)
		}
		return
	}
	if *schedule != "" {
		replaySchedule(*schedule)
		return
	}
	if *stressN > 0 {
		runStress(*stressN, *seed, *system, *faults, *faultSeed, *broken, *stressParallel)
		return
	}

	// Observation plane. The pump is created whenever there is something to
	// observe or something to flush on interrupt; it rides the simulation as
	// its own thread (harness.RunConfig.Observe), so sampling is
	// deterministic and cannot perturb the run.
	obsOn := *httpAddr != "" || *watch || *livelock || *metrics || *profile || *causalOn || *traceOut != ""
	var (
		bus            *observatory.Bus
		pump           *observatory.Pump
		flushArtifacts func(*observatory.Frame)
	)
	if obsOn {
		bus = observatory.NewBus()
		iv := sim.Time(*obsInterval)
		if iv == 0 {
			iv = observatory.DefaultInterval
			if *livelock {
				// The duel lives and dies within a few tens of thousands of
				// cycles; sample finely enough to catch the cycle forming.
				iv = 1000
				if *govern {
					// The governed probe's tuning (watchdog budget, hysteresis)
					// assumes its tested reaction period.
					iv = harness.GovernedLivelockInterval
				}
			}
		}
		pump = observatory.NewPump(observatory.Config{
			Interval: iv,
			Bus:      bus,
			OnFlush: func(fr *observatory.Frame) {
				fmt.Fprintln(os.Stderr, "\nflextm: interrupted — flushing partial artifacts")
				if flushArtifacts != nil {
					flushArtifacts(fr)
				}
				os.Exit(130)
			},
		})
		// SIGINT/SIGQUIT: ask the pump to flush on its next tick, which runs
		// inside the simulation — the only place artifacts can be written
		// without racing the run. If the simulation is wedged and never
		// ticks again, give up after a grace period.
		sigc := make(chan os.Signal, 2)
		signal.Notify(sigc, os.Interrupt, syscall.SIGQUIT)
		go func() {
			<-sigc
			pump.RequestFlush()
			time.Sleep(3 * time.Second)
			fmt.Fprintln(os.Stderr, "flextm: no pump tick within 3s of the signal — exiting without flush")
			os.Exit(130)
		}()
	}
	var srv *observatory.Server
	if *httpAddr != "" {
		srv = observatory.NewServer(bus)
		addr, err := srv.Start(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flextm:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "observatory http://%s (/metrics /snapshot.json /conflictgraph.dot /flight /debug/pprof/)\n", addr)
	}
	var watchDone chan struct{}
	if *watch {
		ch, _ := bus.Subscribe(4096)
		watchDone = make(chan struct{})
		wa := observatory.NewWatcher(os.Stdout)
		wa.AttachBus(bus)
		go func() {
			wa.Run(ch)
			close(watchDone)
		}()
	}
	lingerPhase := func() {
		if srv == nil || *linger <= 0 {
			return
		}
		signal.Reset(os.Interrupt, syscall.SIGQUIT)
		fmt.Fprintf(os.Stderr, "observatory lingering %s for scrapes (Ctrl-C to exit)\n", *linger)
		time.Sleep(*linger)
		srv.Close()
	}

	// The governor. With -livelock the probe's tested configuration is the
	// base; a -govern-ladder spec overrides the rung sequence either way.
	var gov *governor.Governor
	if *govern {
		gcfg := governor.Config{Cooldown: -1}
		if *livelock {
			gcfg = harness.GovernedLivelockConfig()
		}
		if *governLadder != "" {
			ladder, err := governor.ParseLadder(*governLadder)
			if err != nil {
				fmt.Fprintln(os.Stderr, "flextm:", err)
				os.Exit(2)
			}
			gcfg.Ladder = ladder
		}
		gov = governor.New(gcfg)
	}

	if *livelock {
		if gov != nil {
			runGovernedLivelock(*seed, gov, pump, watchDone, *governLog, causalCfg, queryCfg)
		} else {
			runLivelock(*seed, pump, watchDone, causalCfg, queryCfg)
		}
		lingerPhase()
		return
	}

	f, ok := workloads.ByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "flextm: unknown workload %q (try -list)\n", *workload)
		os.Exit(2)
	}
	machine := tmesi.DefaultConfig()
	machine.Cores = *cores

	tracing := *traceStats || *traceOut != ""
	var faultCfg fault.Config
	if *faults != "" {
		var err error
		faultCfg, err = fault.ParseSpec(*faults, *faultSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flextm:", err)
			os.Exit(2)
		}
	}
	// What an interrupted run leaves behind: the windowed attempt timeline,
	// the telemetry tables, and the windowed contention profile (plus its
	// DOT/JSON forms when those were requested). Runs inside the simulation
	// via the pump's OnFlush, so nothing here races the workers.
	flushArtifacts = func(fr *observatory.Frame) {
		if *traceOut != "" && fr.Causal != nil {
			if err := writeChromeTrace(*traceOut, fr.Causal); err == nil {
				fmt.Fprintf(os.Stderr, "trace       partial (window) -> %s\n", *traceOut)
			}
		}
		fmt.Fprintln(os.Stderr, "-- telemetry at interrupt --")
		fr.Cum.Print(os.Stderr)
		fr.Cum.PrintAttribution(os.Stderr)
		if fr.Report != nil {
			fmt.Fprintln(os.Stderr, "-- contention profile at interrupt (window) --")
			fr.Report.Print(os.Stderr)
			if *profileDOT != "" {
				if err := writeDOT(*profileDOT, fr.Report); err == nil {
					fmt.Fprintf(os.Stderr, "graph       partial -> %s\n", *profileDOT)
				}
			}
			if *profileJSON != "" {
				if err := writeReportJSON(*profileJSON, fr.Report); err == nil {
					fmt.Fprintf(os.Stderr, "profile     partial -> %s\n", *profileJSON)
				}
			}
		}
		if fr.Causal != nil {
			fmt.Fprintln(os.Stderr, "-- causal critical path at interrupt (window) --")
			fr.Causal.Print(os.Stderr)
			if *causalDOT != "" {
				if err := writeCausalDOT(*causalDOT, fr.Causal); err == nil {
					fmt.Fprintf(os.Stderr, "causal      partial graph -> %s\n", *causalDOT)
				}
			}
			if *causalJSON != "" {
				if err := writeCausalJSON(*causalJSON, fr.Causal); err == nil {
					fmt.Fprintf(os.Stderr, "causal      partial report -> %s\n", *causalJSON)
				}
			}
		}
	}
	rc := harness.RunConfig{
		System:       harness.SystemName(*system),
		Workload:     f,
		Threads:      *threads,
		OpsPerThread: *ops,
		Machine:      machine,
		Verify:       *verify,
		Metrics:      *metrics,
		Flight:       *profile || *causalOn || queryCfg.on() || tracing,
		Faults:       faultCfg,
		Oracle:       *oracleOn,
		Observe:      pump,
		Govern:       gov,
	}
	if tracing {
		// The summary and timeline fold the whole lifecycle stream: size the
		// rings so the run cannot wrap them.
		rc.FlightPerCore = rc.TraceRingDepth()
	}
	res, err := harness.Run(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flextm:", err)
		os.Exit(1)
	}
	waitWatch(watchDone)

	fmt.Printf("workload    %s\nsystem      %s\nthreads     %d\n", res.Workload, res.System, res.Threads)
	fmt.Printf("commits     %d\naborts      %d (%.2f per commit)\n",
		res.Commits, res.Aborts, float64(res.Aborts)/float64(max(res.Commits, 1)))
	fmt.Printf("cycles      %d\nthroughput  %.2f txn/Mcycle\n", res.Cycles, res.Throughput)
	fmt.Printf("conflicts   median %d, max %d (per committed txn)\n", res.MedianConflicts, res.MaxConflicts)
	if res.Escalations > 0 || *faults != "" {
		fmt.Printf("escalations %d (serialized-irrevocable fallback commits)\n", res.Escalations)
	}
	if fr := res.FaultReport; fr != nil {
		fmt.Printf("faults      %d injected of %d rolls (seed %d)\n", fr.Total, rollTotal(*fr), *faultSeed)
		for _, cl := range fault.Classes() {
			name := cl.String()
			if fr.Rolls[name] > 0 || fr.Fired[name] > 0 {
				fmt.Printf("  %-16s %d/%d\n", name, fr.Fired[name], fr.Rolls[name])
			}
		}
	}
	recs := res.Flight.Snapshot()
	// The summary and the timeline are two views of one attempt DAG.
	var traced *causal.Report
	if tracing {
		traced = causal.Analyze(recs, causal.Options{Cores: machine.Cores})
	}
	if *traceStats {
		fmt.Println("-- trace summary --")
		traced.Summary(recs).Print(os.Stdout)
	}
	m := res.Machine
	fmt.Printf("machine     L1 %.1f%% hit, %d L2 misses, %d threatened, %d exposed-read, %d overflows, %d alerts\n",
		100*float64(m.L1Hits)/float64(max(m.L1Hits+m.L1Misses, 1)),
		m.L2Misses, m.ThreatenedResponses, m.ExposedReadResponses, m.Overflows, m.Alerts)
	// Gate on the flag, not the snapshot: an attached observatory forces
	// telemetry on, and that must not change the default output.
	if *metrics && res.Telemetry != nil {
		fmt.Println("-- telemetry --")
		res.Telemetry.Print(os.Stdout)
		fmt.Println("-- cycle attribution --")
		res.Telemetry.PrintAttribution(os.Stdout)
	}
	if *traceOut != "" {
		if err := writeChromeTrace(*traceOut, traced); err != nil {
			fmt.Fprintln(os.Stderr, "flextm:", err)
			os.Exit(1)
		}
		fmt.Printf("trace       %d flight records -> %s\n", len(recs), *traceOut)
		if n := res.Flight.Overwritten(); n > 0 {
			fmt.Printf("WARNING: flight ring overwrote %d records; the timeline covers only the most recent window\n", n)
		}
	}
	if *profile {
		rep := conflictgraph.Analyze(recs, conflictgraph.Options{Cores: machine.Cores})
		fmt.Println("-- contention profile --")
		rep.Print(os.Stdout)
		if *profileDOT != "" {
			if err := writeDOT(*profileDOT, rep); err != nil {
				fmt.Fprintln(os.Stderr, "flextm:", err)
				os.Exit(1)
			}
			fmt.Printf("graph       -> %s\n", *profileDOT)
		}
		if *profileJSON != "" {
			if err := writeReportJSON(*profileJSON, rep); err != nil {
				fmt.Fprintln(os.Stderr, "flextm:", err)
				os.Exit(1)
			}
			fmt.Printf("profile     -> %s\n", *profileJSON)
		}
	}
	if *causalOn {
		emitCausal(causalCfg, recs, machine.Cores)
	}
	if queryCfg.on() {
		queryCfg.emit(recs, machine.Cores)
	}
	if gov != nil {
		printGovernor(gov)
		if err := writeGovLog(*governLog, gov); err != nil {
			fmt.Fprintln(os.Stderr, "flextm:", err)
			os.Exit(1)
		}
	}
	if rep := res.OracleReport; rep != nil {
		fmt.Println("-- serializability oracle --")
		rep.Print(os.Stdout)
		if !rep.Ok() {
			os.Exit(1)
		}
	} else if *oracleOn {
		fmt.Fprintf(os.Stderr, "flextm: -oracle ignored: %s is not a FlexTM runtime\n", *system)
	}
	lingerPhase()
}

// waitWatch gives the watch goroutine a moment to drain its channel and
// print the Final frame; the bus never blocks publishers, so the main
// goroutine must not exit the instant the run does.
func waitWatch(done chan struct{}) {
	if done == nil {
		return
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
	}
}

// runLivelock runs the dueling-livelock probe under the observation plane:
// the classic demonstration that the watch mode flags an abort cycle while
// the duel is still running, before the watchdog trips.
func runLivelock(seed uint64, pump *observatory.Pump, watchDone chan struct{}, causalCfg causalArtifacts, queryCfg queryConfig) {
	rep, out, err := harness.ObservedLivelockProbe(seed, pump)
	waitWatch(watchDone)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flextm:", err)
		os.Exit(1)
	}
	fmt.Printf("livelock    commits %d, aborts %d, escalations %d (watchdog dump: %v)\n",
		out.Commits, out.Aborts, out.Escalations, out.Dumped)
	rep.Print(os.Stdout)
	emitCausal(causalCfg, out.Recs, 0)
	if queryCfg.on() {
		queryCfg.emit(out.Recs, 0)
	}
	if !rep.Has(conflictgraph.AbortCycle) {
		fmt.Fprintln(os.Stderr, "flextm: livelock probe did not produce an abort cycle")
		os.Exit(1)
	}
}

// runGovernedLivelock runs the same duel under the resilience governor with
// a loosened watchdog: the ladder, not the watchdog, must break the cycle,
// and by run end every rung must have unwound. Either failing exits 1.
func runGovernedLivelock(seed uint64, gov *governor.Governor, pump *observatory.Pump, watchDone chan struct{}, logPath string, causalCfg causalArtifacts, queryCfg queryConfig) {
	rep, out, err := harness.GovernedLivelockProbe(seed, gov, pump)
	waitWatch(watchDone)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flextm:", err)
		os.Exit(1)
	}
	fmt.Printf("livelock    commits %d, aborts %d, escalations %d, watchdog trips %d\n",
		out.Commits, out.Aborts, out.Escalations, out.Trips)
	printGovernor(gov)
	if err := writeGovLog(logPath, gov); err != nil {
		fmt.Fprintln(os.Stderr, "flextm:", err)
		os.Exit(1)
	}
	rep.Print(os.Stdout)
	emitCausal(causalCfg, out.Recs, 0)
	if queryCfg.on() {
		queryCfg.emit(out.Recs, 0)
	}
	if out.Trips > 0 {
		fmt.Fprintf(os.Stderr, "flextm: watchdog tripped %d times; the ladder should have resolved the duel\n", out.Trips)
		os.Exit(1)
	}
	if gov.Level() != 0 {
		fmt.Fprintf(os.Stderr, "flextm: governor stuck at level %d; mitigations did not unwind\n", gov.Level())
		os.Exit(1)
	}
}

// printGovernor renders the run's closed-loop summary and transition log.
func printGovernor(gov *governor.Governor) {
	fmt.Printf("governor    level %d/%d, %d transitions, last state %s\n",
		gov.Level(), len(gov.Config().Ladder), len(gov.Transitions()), gov.LastState())
	if log := gov.TransitionLog(); log != "" {
		fmt.Println("-- governor transitions --")
		fmt.Print(log)
	}
}

// writeGovLog dumps the transition log for CI artifacts and bit-compares.
func writeGovLog(path string, gov *governor.Governor) error {
	if path == "" {
		return nil
	}
	return os.WriteFile(path, []byte(gov.TransitionLog()), 0o644)
}

// runStress sweeps the oracle-checked schedule explorer. In normal runs any
// failure exits non-zero after shrinking it to a minimal replayable
// schedule; with broken=true the logic inverts — the protocol is
// deliberately damaged, and NOT detecting a violation is the failure.
func runStress(n int, seed uint64, system, faults string, faultSeed uint64, broken bool, parallel int) {
	base := stress.DefaultConfig(seed)
	if harness.SystemName(system) == harness.FlexTMEager {
		base.Mode = core.Eager
	}
	base.BreakWR = broken
	base.TinyCache = true
	if faults != "" {
		fc, err := fault.ParseSpec(faults, faultSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flextm:", err)
			os.Exit(2)
		}
		base.Faults = fc
	}
	fmt.Printf("stress      %d seeds from %d, mode %s, broken=%v\n", n, seed, base.Mode, broken)
	res := stress.ExploreParallel(base, n, parallel)
	fmt.Printf("explored    %d runs, %d failures\n", res.Runs, len(res.Failures))
	if len(res.Failures) == 0 {
		if broken {
			fmt.Fprintln(os.Stderr, "flextm: broken protocol variant escaped the oracle")
			os.Exit(1)
		}
		return
	}
	shrunk := stress.Shrink(res.Failures[0].Config, 64)
	fmt.Printf("schedule    %s (shrunk from %s)\n", shrunk.Schedule, res.Failures[0].Schedule)
	if shrunk.RunErr != "" {
		fmt.Println("run error  ", shrunk.RunErr)
	}
	if shrunk.Report != nil {
		shrunk.Report.Print(os.Stdout)
	}
	if !broken {
		os.Exit(1)
	}
}

// replaySchedule re-runs one stress schedule string and prints its verdict.
func replaySchedule(s string) {
	cfg, err := stress.ParseSchedule(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flextm:", err)
		os.Exit(2)
	}
	out := stress.Run(cfg)
	fmt.Printf("schedule    %s\ncommits     %d\naborts      %d\nescalations %d\ninjected    %d\ncycles      %d\n",
		out.Schedule, out.Commits, out.Aborts, out.Escalations, out.Injected, out.Cycles)
	if out.RunErr != "" {
		fmt.Println("run error  ", out.RunErr)
	}
	if out.Report != nil {
		out.Report.Print(os.Stdout)
	}
	if out.Failed() {
		os.Exit(1)
	}
}

// writeDOT dumps the conflict graph in Graphviz DOT form.
func writeDOT(path string, rep *conflictgraph.Report) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteDOT(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// writeReportJSON dumps the full structured report.
func writeReportJSON(path string, rep *conflictgraph.Report) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// queryList collects repeated -query flags.
type queryList []string

func (q *queryList) String() string { return strings.Join(*q, "; ") }
func (q *queryList) Set(s string) error {
	*q = append(*q, s)
	return nil
}

// queryConfig carries the parsed -query set to whichever run path ends up
// owning the flight records.
type queryConfig struct {
	exprs   []string
	parsed  []*flightql.Query
	outPath string
}

// newQueryConfig parses every -query expression up front.
func newQueryConfig(exprs []string, outPath string) (queryConfig, error) {
	if outPath != "" && len(exprs) == 0 {
		return queryConfig{}, fmt.Errorf("-query-out needs at least one -query")
	}
	cfg := queryConfig{exprs: exprs, outPath: outPath}
	for _, src := range exprs {
		q, err := flightql.Parse(src)
		if err != nil {
			return queryConfig{}, err
		}
		cfg.parsed = append(cfg.parsed, q)
	}
	return cfg, nil
}

func (c queryConfig) on() bool { return len(c.parsed) > 0 }

// emit runs the query set over the run's flight records, prints each result
// as a table, and — with -query-out — writes all results as one canonical
// JSON document (byte-stable per seed; the CI golden file). cores may be 0:
// replay then sizes the machine from the records.
func (c queryConfig) emit(recs []flight.Rec, cores int) {
	env := flightql.Env{Cores: cores}
	results := make([]flightql.QueryResult, 0, len(c.parsed))
	for i, q := range c.parsed {
		res, err := q.RunEnv(recs, env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "flextm: query %q: %v\n", c.exprs[i], err)
			os.Exit(1)
		}
		fmt.Printf("-- query: %s --\n", c.exprs[i])
		res.WriteTable(os.Stdout)
		results = append(results, flightql.QueryResult{Query: c.exprs[i], Result: res})
	}
	if c.outPath == "" {
		return
	}
	out, err := os.Create(c.outPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flextm:", err)
		os.Exit(1)
	}
	if err := flightql.WriteResultsJSON(out, results); err != nil {
		out.Close()
		fmt.Fprintln(os.Stderr, "flextm:", err)
		os.Exit(1)
	}
	if err := out.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "flextm:", err)
		os.Exit(1)
	}
	fmt.Printf("queries     %d results -> %s\n", len(results), c.outPath)
}

// causalArtifacts carries the -causal flag family to whichever run path
// ends up owning the flight records.
type causalArtifacts struct {
	on       bool
	jsonPath string
	dotPath  string
}

// emitCausal reconstructs the attempt DAG from the run's flight records,
// prints the critical-path report, and writes any requested artifacts.
// cores may be 0: Analyze then sizes the machine from the records.
func emitCausal(cfg causalArtifacts, recs []flight.Rec, cores int) {
	if !cfg.on {
		return
	}
	fmt.Println("-- causal critical path --")
	rep := causal.Analyze(recs, causal.Options{Cores: cores})
	if rep == nil {
		fmt.Println("(no flight records)")
		return
	}
	rep.Print(os.Stdout)
	if cfg.dotPath != "" {
		if err := writeCausalDOT(cfg.dotPath, rep); err != nil {
			fmt.Fprintln(os.Stderr, "flextm:", err)
			os.Exit(1)
		}
		fmt.Printf("causal      graph -> %s\n", cfg.dotPath)
	}
	if cfg.jsonPath != "" {
		if err := writeCausalJSON(cfg.jsonPath, rep); err != nil {
			fmt.Fprintln(os.Stderr, "flextm:", err)
			os.Exit(1)
		}
		fmt.Printf("causal      report -> %s\n", cfg.jsonPath)
	}
}

// writeCausalDOT dumps the attempt DAG with the critical path highlighted.
func writeCausalDOT(path string, rep *causal.Report) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	rep.WriteDOT(out)
	return out.Close()
}

// writeCausalJSON dumps the causal report in its canonical (byte-stable
// per seed) JSON form.
func writeCausalJSON(path string, rep *causal.Report) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// writeChromeTrace dumps the attempt timeline in Chrome trace_event JSON.
func writeChromeTrace(path string, rep *causal.Report) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteChrome(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func max(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// faultClassList enumerates the injectable class names for -faults usage.
func faultClassList() string {
	s := ""
	for i, cl := range fault.Classes() {
		if i > 0 {
			s += ", "
		}
		s += cl.String()
	}
	return s
}

// rollTotal sums the per-class roll counts of a fault report.
func rollTotal(fr fault.Report) uint64 {
	var n uint64
	for _, v := range fr.Rolls {
		n += v
	}
	return n
}
