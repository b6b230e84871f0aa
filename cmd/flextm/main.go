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
// telemetry tables, the windowed attempt timeline — before exiting 130. A
// signal during -linger ends the scrape window and also exits 130.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
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
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGQUIT)
	// Unbuffered: a send lands only while run listens, which an observed run
	// does. Any other run ends at once, as under the default signal action.
	sig := make(chan os.Signal)
	go func() {
		s := <-sigc
		select {
		case sig <- s:
			// The flush waits for the next pump tick; a wedged simulation
			// never ticks again.
			time.Sleep(3 * time.Second)
			fmt.Fprintln(os.Stderr, "flextm: no pump tick within 3s of the signal — exiting without flush")
		default:
		}
		os.Exit(130)
	}()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sig))
}

// exitStatus is an error that only sets the exit status: whatever explains
// it is already printed.
type exitStatus int

func (s exitStatus) Error() string { return "exit status " + strconv.Itoa(int(s)) }

// errInterrupted ends a run that a signal interrupted.
const errInterrupted exitStatus = 130

// usageError is a bad flag value; it exits 2, as a flag the flag package
// rejects does.
type usageError struct{ error }

// run is flextm with its arguments, output streams and signals passed in,
// returning the exit status: 0, 1 on a failed run or verdict, 2 on a usage
// error, 130 on interrupt.
func run(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) (code int) {
	defer func() {
		// The pump's flush reader ends an interrupted run by panicking out
		// of the simulation; the *sim.ThreadPanic unwraps to errInterrupted.
		if v := recover(); v != nil {
			if err, ok := v.(error); !ok || !errors.Is(err, errInterrupted) {
				panic(v)
			}
			code = int(errInterrupted)
		}
	}()
	err := flextm(args, stdout, stderr, sig)
	var status exitStatus
	switch {
	case err == nil:
		return 0
	case errors.As(err, &status):
		return int(status)
	}
	fmt.Fprintln(stderr, "flextm:", err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

func flextm(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) error {
	fs := flag.NewFlagSet("flextm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "RBTree", "workload name (see -list)")
	system := fs.String("system", "FlexTM(Lazy)", "TM system: CGL, FlexTM(Eager), FlexTM(Lazy), RTM-F, RSTM, TL2")
	threads := fs.Int("threads", 8, "number of threads (<= cores)")
	ops := fs.Int("ops", harness.DefaultOps, "operations per thread")
	cores := fs.Int("cores", 16, "cores in the simulated CMP")
	verify := fs.Bool("verify", true, "check structural invariants after the run")
	traceStats := fs.Bool("tracestats", false, "print a transaction-level trace summary folded from the flight recorder (FlexTM systems)")
	metrics := fs.Bool("metrics", false, "collect per-mechanism telemetry and print counter + cycle-attribution tables")
	traceOut := fs.String("trace-out", "", "write the per-core attempt timeline, with kill arrows and a critical-path track, as Chrome trace_event JSON to FILE (open in chrome://tracing or Perfetto)")
	faults := fs.String("faults", "", "fault injection spec, e.g. 'commit-race:0.3,alert-loss:0.1' or 'all:0.05' (classes: "+faultClassList()+")")
	faultSeed := fs.Uint64("fault-seed", 1, "fault-schedule seed; same seed + config replays the identical campaign")
	profile := fs.Bool("profile", false, "record a flight-recorder history and print the conflict-graph contention profile")
	profileDOT := fs.String("profile-dot", "", "write the conflict graph in Graphviz DOT form to FILE (implies -profile)")
	profileJSON := fs.String("profile-json", "", "write the full conflict-graph report as JSON to FILE (implies -profile)")
	causalOn := fs.Bool("causal", false, "reconstruct the attempt DAG and print the makespan critical path with per-line blame")
	causalJSON := fs.String("causal-json", "", "write the causal report (critical path, blame, wasted-work ledger) as JSON to FILE (implies -causal)")
	causalDOT := fs.String("causal-dot", "", "write the critical path in Graphviz DOT form to FILE (implies -causal)")
	oracleOn := fs.Bool("oracle", false, "attach the serializability oracle to the run and print its verdict (FlexTM systems)")
	stressN := fs.Int("stress", 0, "run N seeds of the oracle-checked stress explorer instead of a workload")
	seed := fs.Uint64("seed", 1, "base seed for -stress")
	broken := fs.Bool("broken", false, "with -stress: disable the commit-time W-R aborts (the oracle must catch the break)")
	schedule := fs.String("schedule", "", "replay one stress schedule string (as printed by -stress failures)")
	list := fs.Bool("list", false, "list workloads and exit")
	httpAddr := fs.String("http", "", "serve the live observatory on ADDR (e.g. :8080): /metrics, /snapshot.json, /conflictgraph.dot, /flight, /debug/pprof/")
	watch := fs.Bool("watch", false, "print one digest line per sampling interval, with sparkline trends and live pathology flags")
	obsInterval := fs.Uint64("obs-interval", 0, "observation sampling interval in simulated cycles (0 = auto)")
	linger := fs.Duration("linger", 0, "keep the -http server up for DUR after the run ends (scrape window)")
	livelock := fs.Bool("livelock", false, "run the dueling-livelock probe instead of a workload (pairs with -watch)")
	govern := fs.Bool("govern", false, "attach the closed-loop resilience governor (FlexTM systems; with -livelock the probe must self-heal)")
	governLadder := fs.String("govern-ladder", "", "governor mitigation ladder spec, e.g. 'cm:Polka,backoff:3,admit:auto,sig:4,serialize' (default: built-in ladder)")
	governLog := fs.String("govern-log", "", "write the governor transition log to FILE after the run")
	var queryExprs queryList
	fs.Var(&queryExprs, "query", "FlightQL query over the run's flight records (repeatable), e.g. 'filter kind == cm-stall | group by line agg sum(dur) | top 5 by sum(dur)'; implies the flight recorder")
	queryOut := fs.String("query-out", "", "write all -query results as one canonical JSON document to FILE (byte-stable per seed)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return exitStatus(2)
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
		return usageError{err}
	}

	if *list {
		for _, f := range workloads.All() {
			fmt.Fprintln(stdout, f.Name)
		}
		return nil
	}
	if *schedule != "" {
		return replaySchedule(stdout, *schedule)
	}
	if *stressN > 0 {
		return runStress(stdout, *stressN, *seed, *system, *faults, *faultSeed, *broken)
	}

	// What an interrupted workload run leaves behind: the windowed attempt
	// timeline, the telemetry tables, and the windowed contention profile
	// (plus its DOT/JSON forms when those were requested). Runs inside the
	// simulation as the pump's last reader, so nothing here races the
	// workers.
	// A partial artifact that cannot be written is skipped: the run is
	// ending either way.
	flushArtifacts := func(fr *observatory.Frame) {
		if fr.Causal != nil {
			_ = save(stderr, "trace       partial (window)", *traceOut, fr.Causal.WriteChrome)
		}
		fmt.Fprintln(stderr, "-- telemetry at interrupt --")
		fr.Cum.Print(stderr)
		fr.Cum.PrintAttribution(stderr)
		if fr.Report != nil {
			fmt.Fprintln(stderr, "-- contention profile at interrupt (window) --")
			fr.Report.Print(stderr)
			_ = save(stderr, "graph       partial", *profileDOT, fr.Report.WriteDOT)
			_ = save(stderr, "profile     partial", *profileJSON, reportJSON(fr.Report))
		}
		if fr.Causal != nil {
			fmt.Fprintln(stderr, "-- causal critical path at interrupt (window) --")
			fr.Causal.Print(stderr)
			_ = save(stderr, "causal      partial graph", *causalDOT, causalDOTWriter(fr.Causal))
			_ = save(stderr, "causal      partial report", *causalJSON, fr.Causal.WriteJSON)
		}
	}

	// Observation plane. The pump is created whenever there is something to
	// observe or something to flush on interrupt; it rides the simulation as
	// its own thread (harness.RunConfig.Observe), so sampling is
	// deterministic and cannot perturb the run. Its readers run on that
	// thread too: the watcher prints each line on the tick that sampled it,
	// and the server's latest-frame cell is the only hand-off to another
	// goroutine.
	obsOn := *httpAddr != "" || *watch || *livelock || *metrics || *profile || *causalOn || *traceOut != ""
	var (
		readers []func(*observatory.Frame)
		pump    *observatory.Pump
	)
	if *watch {
		readers = append(readers, observatory.NewWatcher(stdout).Observe)
	}
	if *httpAddr != "" {
		srv := observatory.NewServer()
		addr, err := srv.Start(*httpAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		readers = append(readers, srv.Publish)
		fmt.Fprintf(stderr, "observatory http://%s (/metrics /snapshot.json /conflictgraph.dot /flight /debug/pprof/)\n", addr)
	}
	interrupted := make(chan struct{})
	// flushReq is the one cross-goroutine hand-off into the simulation: a
	// signal sets it, and the pump's last reader takes it on its next tick.
	var flushReq atomic.Bool
	if obsOn {
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
		readers = append(readers, func(fr *observatory.Frame) {
			if !flushReq.CompareAndSwap(true, false) {
				return
			}
			fmt.Fprintln(stderr, "\nflextm: interrupted — flushing partial artifacts")
			if !*livelock {
				flushArtifacts(fr)
			}
			panic(errInterrupted)
		})
		pump = observatory.NewPump(observatory.Config{Interval: iv, Readers: readers})
		// A signal asks the pump's last reader to flush on the next tick,
		// which runs inside the simulation — the only place artifacts can be
		// written without racing the run — and ends a -linger window.
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-sig:
				close(interrupted)
				flushReq.Store(true)
			case <-done:
			}
		}()
	}
	lingerPhase := func() error {
		if *httpAddr == "" || *linger <= 0 {
			return nil
		}
		fmt.Fprintf(stderr, "observatory lingering %s for scrapes (Ctrl-C to exit)\n", *linger)
		select {
		case <-time.After(*linger):
			return nil
		case <-interrupted:
			return errInterrupted
		}
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
				return usageError{err}
			}
			gcfg.Ladder = ladder
		}
		gov = governor.New(gcfg)
	}

	if *livelock {
		if err := runLivelock(stdout, *seed, gov, pump, *governLog, causalCfg, queryCfg); err != nil {
			return err
		}
		return lingerPhase()
	}

	f, ok := workloads.ByName(*workload)
	if !ok {
		return usageError{fmt.Errorf("unknown workload %q (try -list)", *workload)}
	}
	machine := tmesi.DefaultConfig()
	machine.Cores = *cores

	tracing := *traceStats || *traceOut != ""
	var faultCfg fault.Config
	if *faults != "" {
		if faultCfg, err = fault.ParseSpec(*faults, *faultSeed); err != nil {
			return usageError{err}
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
		return err
	}

	fmt.Fprintf(stdout, "workload    %s\nsystem      %s\nthreads     %d\n", res.Workload, res.System, res.Threads)
	fmt.Fprintf(stdout, "commits     %d\naborts      %d (%.2f per commit)\n",
		res.Commits, res.Aborts, float64(res.Aborts)/float64(max(res.Commits, 1)))
	fmt.Fprintf(stdout, "cycles      %d\nthroughput  %.2f txn/Mcycle\n", res.Cycles, res.Throughput)
	fmt.Fprintf(stdout, "conflicts   median %d, max %d (per committed txn)\n", res.MedianConflicts, res.MaxConflicts)
	if res.Escalations > 0 || *faults != "" {
		fmt.Fprintf(stdout, "escalations %d (serialized-irrevocable fallback commits)\n", res.Escalations)
	}
	if fr := res.FaultReport; fr != nil {
		fmt.Fprintf(stdout, "faults      %d injected of %d rolls (seed %d)\n", fr.Total, rollTotal(*fr), *faultSeed)
		for _, cl := range fault.Classes() {
			name := cl.String()
			if fr.Rolls[name] > 0 || fr.Fired[name] > 0 {
				fmt.Fprintf(stdout, "  %-16s %d/%d\n", name, fr.Fired[name], fr.Rolls[name])
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
		fmt.Fprintln(stdout, "-- trace summary --")
		traced.Summary(recs).Print(stdout)
	}
	m := res.Machine
	fmt.Fprintf(stdout, "machine     L1 %.1f%% hit, %d L2 misses, %d threatened, %d exposed-read, %d overflows, %d alerts\n",
		100*float64(m.L1Hits)/float64(max(m.L1Hits+m.L1Misses, 1)),
		m.L2Misses, m.ThreatenedResponses, m.ExposedReadResponses, m.Overflows, m.Alerts)
	// Gate on the flag, not the snapshot: an attached observatory forces
	// telemetry on, and that must not change the default output.
	if *metrics && res.Telemetry != nil {
		fmt.Fprintln(stdout, "-- telemetry --")
		res.Telemetry.Print(stdout)
		fmt.Fprintln(stdout, "-- cycle attribution --")
		res.Telemetry.PrintAttribution(stdout)
	}
	if *traceOut != "" {
		if err := save(stdout, fmt.Sprintf("trace       %d flight records", len(recs)), *traceOut, traced.WriteChrome); err != nil {
			return err
		}
		if n := res.Flight.Overwritten(); n > 0 {
			fmt.Fprintf(stdout, "WARNING: flight ring overwrote %d records; the timeline covers only the most recent window\n", n)
		}
	}
	if *profile {
		rep := conflictgraph.Analyze(recs, conflictgraph.Options{Cores: machine.Cores})
		fmt.Fprintln(stdout, "-- contention profile --")
		rep.Print(stdout)
		if err := save(stdout, "graph", *profileDOT, rep.WriteDOT); err != nil {
			return err
		}
		if err := save(stdout, "profile", *profileJSON, reportJSON(rep)); err != nil {
			return err
		}
	}
	if err := emitCausal(stdout, causalCfg, recs, machine.Cores); err != nil {
		return err
	}
	if err := queryCfg.emit(stdout, recs, machine.Cores); err != nil {
		return err
	}
	if gov != nil {
		if err := reportGovernor(stdout, gov, *governLog); err != nil {
			return err
		}
	}
	if rep := res.OracleReport; rep != nil {
		fmt.Fprintln(stdout, "-- serializability oracle --")
		rep.Print(stdout)
		if !rep.Ok() {
			return exitStatus(1)
		}
	} else if *oracleOn {
		fmt.Fprintf(stderr, "flextm: -oracle ignored: %s is not a FlexTM runtime\n", *system)
	}
	return lingerPhase()
}

// runLivelock runs the dueling-livelock probe under the observation plane.
// Ungoverned, it is the classic demonstration that the watch mode flags an
// abort cycle while the duel is still running, before the watchdog trips.
// Governed, the watchdog is loosened: the ladder, not the watchdog, must
// break the cycle, and by run end every rung must have unwound. Either
// failing is an error.
func runLivelock(w io.Writer, seed uint64, gov *governor.Governor, pump *observatory.Pump, logPath string, causalCfg causalArtifacts, queryCfg queryConfig) error {
	rep, out, err := harness.LivelockProbe(seed, gov, pump)
	if err != nil {
		return err
	}
	if gov != nil {
		fmt.Fprintf(w, "livelock    commits %d, aborts %d, escalations %d, watchdog trips %d\n",
			out.Commits, out.Aborts, out.Escalations, out.Trips)
		if err := reportGovernor(w, gov, logPath); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(w, "livelock    commits %d, aborts %d, escalations %d (watchdog dump: %v)\n",
			out.Commits, out.Aborts, out.Escalations, out.Dumped)
	}
	rep.Print(w)
	if err := emitCausal(w, causalCfg, out.Recs, 0); err != nil {
		return err
	}
	if err := queryCfg.emit(w, out.Recs, 0); err != nil {
		return err
	}
	switch {
	case gov == nil && !rep.Has(conflictgraph.AbortCycle):
		return errors.New("livelock probe did not produce an abort cycle")
	case gov != nil && out.Trips > 0:
		return fmt.Errorf("watchdog tripped %d times; the ladder should have resolved the duel", out.Trips)
	case gov != nil && gov.Level() != 0:
		return fmt.Errorf("governor stuck at level %d; mitigations did not unwind", gov.Level())
	}
	return nil
}

// reportGovernor renders the run's closed-loop summary and transition log,
// and writes the log to path when one is given.
func reportGovernor(w io.Writer, gov *governor.Governor, path string) error {
	fmt.Fprintf(w, "governor    level %d/%d, %d transitions, last state %s\n",
		gov.Level(), len(gov.Config().Ladder), len(gov.Transitions()), gov.LastState())
	log := gov.TransitionLog()
	if log != "" {
		fmt.Fprintln(w, "-- governor transitions --")
		fmt.Fprint(w, log)
	}
	if path == "" {
		return nil
	}
	return os.WriteFile(path, []byte(log), 0o644)
}

// runStress sweeps the oracle-checked schedule explorer. In normal runs any
// failure exits non-zero after shrinking it to a minimal replayable
// schedule; with broken=true the logic inverts — the protocol is
// deliberately damaged, and NOT detecting a violation is the failure.
func runStress(w io.Writer, n int, seed uint64, system, faults string, faultSeed uint64, broken bool) error {
	base := stress.DefaultConfig(seed)
	if harness.SystemName(system) == harness.FlexTMEager {
		base.Mode = core.Eager
	}
	base.BreakWR = broken
	base.TinyCache = true
	if faults != "" {
		fc, err := fault.ParseSpec(faults, faultSeed)
		if err != nil {
			return usageError{err}
		}
		base.Faults = fc
	}
	fmt.Fprintf(w, "stress      %d seeds from %d, mode %s, broken=%v\n", n, seed, base.Mode, broken)
	res := stress.Explore(base, n)
	fmt.Fprintf(w, "explored    %d runs, %d failures\n", res.Runs, len(res.Failures))
	if len(res.Failures) == 0 {
		if broken {
			return errors.New("broken protocol variant escaped the oracle")
		}
		return nil
	}
	shrunk := stress.Shrink(res.Failures[0].Config, 64)
	fmt.Fprintf(w, "schedule    %s (shrunk from %s)\n", shrunk.Schedule, res.Failures[0].Schedule)
	if shrunk.RunErr != "" {
		fmt.Fprintln(w, "run error  ", shrunk.RunErr)
	}
	if shrunk.Report != nil {
		shrunk.Report.Print(w)
	}
	if !broken {
		return exitStatus(1)
	}
	return nil
}

// replaySchedule re-runs one stress schedule string and prints its verdict.
func replaySchedule(w io.Writer, s string) error {
	cfg, err := stress.ParseSchedule(s)
	if err != nil {
		return usageError{err}
	}
	out := stress.Run(cfg)
	fmt.Fprintf(w, "schedule    %s\ncommits     %d\naborts      %d\nescalations %d\ninjected    %d\ncycles      %d\n",
		out.Schedule, out.Commits, out.Aborts, out.Escalations, out.Injected, out.Cycles)
	if out.RunErr != "" {
		fmt.Fprintln(w, "run error  ", out.RunErr)
	}
	if out.Report != nil {
		out.Report.Print(w)
	}
	if out.Failed() {
		return exitStatus(1)
	}
	return nil
}

// save writes an artifact to path, when one was asked for, and reports it
// on w as "label -> path".
func save(w io.Writer, label, path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(out); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-11s -> %s\n", label, path)
	return nil
}

// reportJSON renders the full structured conflict-graph report.
func reportJSON(rep *conflictgraph.Report) func(io.Writer) error {
	return func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
}

// causalDOTWriter adapts the attempt DAG's DOT renderer, which cannot fail,
// to save.
func causalDOTWriter(rep *causal.Report) func(io.Writer) error {
	return func(w io.Writer) error {
		rep.WriteDOT(w)
		return nil
	}
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
// JSON document (byte-stable per seed; the golden file). cores may be 0:
// replay then sizes the machine from the records.
func (c queryConfig) emit(w io.Writer, recs []flight.Rec, cores int) error {
	if !c.on() {
		return nil
	}
	env := flightql.Env{Cores: cores}
	results := make([]flightql.QueryResult, 0, len(c.parsed))
	for i, q := range c.parsed {
		res, err := q.RunEnv(recs, env)
		if err != nil {
			return fmt.Errorf("query %q: %v", c.exprs[i], err)
		}
		fmt.Fprintf(w, "-- query: %s --\n", c.exprs[i])
		res.WriteTable(w)
		results = append(results, flightql.QueryResult{Query: c.exprs[i], Result: res})
	}
	return save(w, fmt.Sprintf("queries     %d results", len(results)), c.outPath,
		func(out io.Writer) error { return flightql.WriteResultsJSON(out, results) })
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
func emitCausal(w io.Writer, cfg causalArtifacts, recs []flight.Rec, cores int) error {
	if !cfg.on {
		return nil
	}
	fmt.Fprintln(w, "-- causal critical path --")
	rep := causal.Analyze(recs, causal.Options{Cores: cores})
	if rep == nil {
		fmt.Fprintln(w, "(no flight records)")
		return nil
	}
	rep.Print(w)
	if err := save(w, "causal      graph", cfg.dotPath, causalDOTWriter(rep)); err != nil {
		return err
	}
	return save(w, "causal      report", cfg.jsonPath, rep.WriteJSON)
}

// faultClassList enumerates the injectable class names for -faults usage.
func faultClassList() string {
	var names []string
	for _, cl := range fault.Classes() {
		names = append(names, cl.String())
	}
	return strings.Join(names, ", ")
}

// rollTotal sums the per-class roll counts of a fault report.
func rollTotal(fr fault.Report) uint64 {
	var n uint64
	for _, v := range fr.Rolls {
		n += v
	}
	return n
}
