package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"flextm/internal/causal"
	"flextm/internal/conflictgraph"
	"flextm/internal/flightql"
	"flextm/internal/harness"
	"flextm/internal/replay"
	"flextm/internal/sweepexec"
	cellcache "flextm/internal/sweepexec/cache"
	"flextm/internal/tmesi"
	"flextm/internal/workloads"
)

// machine is the paper's Table 3(a) machine, used by every cell.
var machine = tmesi.DefaultConfig()

// postmortemRing sizes a postmortem cell's flight rings so they never
// wrap (a cell records under 2k per core): replay's telemetry identity
// holds only over the complete stream.
const postmortemRing = 1 << 13

// replayRing keeps a replay cell's rings small; a replay cell records
// about a hundred per core, and nothing there needs the full stream.
const replayRing = 1 << 9

// postmortemQueries is the FlightQL query set behind
// cmd/flextm/testdata/flightql_golden.json, minus its livelock-only expect.
var postmortemQueries = []string{
	"group by kind",
	"filter kind == abort-enemy | group by core, peer agg count",
	"filter kind == cm-stall | group by line agg count, sum(dur), max(dur) | top 3 by sum(dur)",
	"at cycle 30000 show cores",
	"at cycle 30000 show lines where writers > 1",
}

// The analysis layers a postmortem cell runs, in order.
const (
	anCausal = iota
	anConflictGraph
	anFlightQL
	anReplay
	numAnalyses
)

var analysisSpan = [numAnalyses]string{"causal.analyze", "conflictgraph.analyze", "flightql.queries", "replay.final"}

// bench is one workload's run state.
type bench struct {
	w       workload
	seed    uint64
	root    string // checkout root; the benchmark writes only under root/.bench_build
	golden  map[string]string
	queries []*flightql.Query
	store   *cellcache.Store
	workers int
	// regen skips the golden check: the run is producing the goldens.
	regen bool
	// firstDigests are the first pass's digests, printed for a seed
	// without goldens.
	firstDigests map[string]string
	// errs collects failure messages for the report.
	errs []string
}

// instruments overrides a postmortem cell's sinks, for instrument prices.
type instruments struct{ metrics, flight, oracle bool }

// passOpts selects how a pass runs its cells.
type passOpts struct {
	tr *tracer
	// metrics attaches telemetry to every cell (the traced run's counter
	// pass); simulated results do not change.
	metrics bool
	// instr, when set, replaces the postmortem sinks and skips the
	// analyses and the golden check.
	instr *instruments
	// warm marks a replay pass whose every cell must hit the store.
	warm bool
}

// cellOut is one cell's outcome.
type cellOut struct {
	spec   cellSpec
	res    harness.Result
	dur    time.Duration // producing the Result, plus a postmortem cell's analyses
	simops uint64
	an     [numAnalyses]time.Duration
	digest string
	err    error
}

// passOut is one pass over a workload's grid.
type passOut struct {
	wall      time.Duration
	cells     []cellOut
	attempted int
	failed    int
	digests   map[string]string
	mapWall   time.Duration
	workers   int
	cache     cellcache.Stats
}

// simOps counts a Result's simulated memory operations.
func simOps(m tmesi.Stats) uint64 { return m.Loads + m.Stores + m.TLoads + m.TStores }

func isFlexTM(s harness.SystemName) bool {
	return s == harness.FlexTMEager || s == harness.FlexTMLazy
}

// runConfig builds a cell's RunConfig through the seeded adapter.
func (b *bench) runConfig(c cellSpec, opts passOpts) harness.RunConfig {
	f, ok := workloads.ByName(c.Workload)
	if !ok {
		panic("perfbench: unknown workload " + c.Workload)
	}
	rc := harness.RunConfig{
		System: c.System, Workload: seededFactory(f, b.seed, opts.tr), Threads: c.Threads,
		OpsPerThread: b.w.ops, WarmupOps: b.w.warmup, Machine: machine, Verify: true,
		Metrics: opts.metrics || b.w.postmortem || b.w.replay,
		Flight:  b.w.postmortem || b.w.replay,
		Oracle:  b.w.postmortem,
	}
	switch {
	case b.w.postmortem:
		rc.FlightPerCore = postmortemRing
	case b.w.replay:
		rc.FlightPerCore = replayRing
	}
	if in := opts.instr; in != nil {
		rc.Metrics, rc.Flight, rc.Oracle = in.metrics, in.flight, in.oracle
	}
	return rc
}

// setup prepares one timed or traced run: goldens, queries, and either a
// warm-up cell or (for replay) a cold fill of a fresh cell store on nproc
// workers. It returns the fill's outcome for the failure count.
func (b *bench) setup(rep int) (passOut, error) {
	if !b.regen {
		g, err := loadGoldens(filepath.Join(b.root, "perfbench", "golden"), b.w.name, b.seed)
		if err != nil {
			return passOut{}, err
		}
		b.golden = g
	}
	if b.w.postmortem {
		b.queries = b.queries[:0]
		for _, src := range postmortemQueries {
			q, err := flightql.Parse(src)
			if err != nil {
				return passOut{}, fmt.Errorf("query %q: %w", src, err)
			}
			b.queries = append(b.queries, q)
		}
	}
	if !b.w.replay {
		// One untimed cell, the grid's first at its largest thread count,
		// lets the heap and the code pages settle.
		warm := 0
		for i, c := range b.w.grid {
			if c.Threads > b.w.grid[warm].Threads {
				warm = i
			}
		}
		co := b.cell(warm, harness.SweepConfig{}, passOpts{})
		if co.err != nil {
			return passOut{}, co.err
		}
		return passOut{}, nil
	}
	dir := filepath.Join(b.root, ".bench_build", "cellstore", fmt.Sprintf("%d-%d", os.Getpid(), rep))
	if err := b.closeStore(); err != nil {
		return passOut{}, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return passOut{}, err
	}
	var err error
	if b.store, err = cellcache.Open(dir); err != nil {
		return passOut{}, err
	}
	return b.pass(passOpts{}), nil
}

// closeStore removes the replay store, if any.
func (b *bench) closeStore() error {
	if b.store == nil {
		return nil
	}
	dir := b.store.Dir()
	b.store = nil
	return os.RemoveAll(dir)
}

// pass runs the workload's grid once through sweepexec.Map and
// SweepConfig.RunCell and checks every output.
func (b *bench) pass(opts passOpts) passOut {
	grid := b.w.grid
	out := passOut{cells: make([]cellOut, len(grid)), digests: map[string]string{}, workers: 1}
	if b.w.replay {
		out.workers = b.workers
	}
	sc := harness.SweepConfig{Cache: b.store}
	before := b.store.Stats()
	start := time.Now()
	// A failed cell is a value, not an error, and there is no Stop
	// channel, so Map cannot fail.
	_ = sweepexec.Map(sweepexec.Exec{Workers: out.workers}, len(grid),
		func(i int) (cellOut, error) { return b.cell(i, sc, opts), nil },
		func(i int, co cellOut) error { out.cells[i] = co; return nil })
	out.mapWall = time.Since(start)
	after := b.store.Stats()
	out.cache = cellcache.Stats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}

	check := opts.instr == nil
	for _, co := range out.cells {
		out.attempted++
		id := co.spec.id()
		switch {
		case co.err != nil:
			b.fail(&out, fmt.Sprintf("%s: %v", id, co.err))
		case check:
			out.digests[id] = co.digest
			if err := checkDigest(b.golden, id, co.digest); err != nil {
				b.fail(&out, err.Error())
			}
		}
	}
	if b.w.replay {
		out.attempted++
		d := digestBytes(plotBytes(out.cells))
		out.digests[plotsID] = d
		if err := checkDigest(b.golden, plotsID, d); err != nil {
			b.fail(&out, err.Error())
		}
	}
	if opts.warm && out.cache.Misses > 0 {
		// Each miss is a cell that re-simulated instead of replaying.
		for k := uint64(0); k < out.cache.Misses; k++ {
			b.fail(&out, "warm replay missed the cell store")
		}
	}
	out.wall = time.Since(start)
	return out
}

func (b *bench) fail(out *passOut, msg string) {
	out.failed++
	b.note(msg)
}

// note keeps the first few failure messages for the report.
func (b *bench) note(msg string) {
	if len(b.errs) < 20 {
		b.errs = append(b.errs, msg)
	}
}

// cell produces one cell's Result and, for postmortem, runs the analyses.
func (b *bench) cell(i int, sc harness.SweepConfig, opts passOpts) cellOut {
	c := b.w.grid[i]
	rc := b.runConfig(c, opts)
	tr := opts.tr
	var get frame
	switch {
	case tr != nil && b.w.replay:
		get = tr.open("cellcache.get", 0, i)
	case tr != nil:
		tr.beginCell(i, isFlexTM(c.System))
	}
	t0 := time.Now()
	res, err := sc.RunCell(rc)
	switch {
	case tr != nil && b.w.replay:
		tr.close(get)
	case tr != nil:
		tr.endCell()
	}
	co := cellOut{spec: c, res: res, simops: simOps(res.Machine), err: err}
	var extra []byte
	if err == nil && b.w.postmortem && opts.instr == nil {
		extra, co.err = b.analyze(res, tr, i, &co.an)
	}
	co.dur = time.Since(t0)
	if co.err == nil {
		co.digest = digestResult(res, extra)
	}
	return co
}

// analysisSink keeps analysis reports reachable so no call is elided.
var analysisSink [2]any

// analyze runs a postmortem cell's analysis pipeline and returns the
// FlightQL results, which join the cell's digest. A lost flight record, an
// oracle violation or a replay/telemetry mismatch fails the cell.
func (b *bench) analyze(res harness.Result, tr *tracer, cell int, an *[numAnalyses]time.Duration) ([]byte, error) {
	if res.OracleReport == nil || !res.OracleReport.Ok() {
		return nil, fmt.Errorf("oracle: not serializable")
	}
	if n := res.Flight.Overwritten(); n != 0 {
		return nil, fmt.Errorf("flight: %d records lost to ring wrap-around", n)
	}
	recs := res.Flight.Snapshot()
	cores := machine.Cores
	timed := func(k int, f func() error) error {
		var fr frame
		if tr != nil {
			fr = tr.open(analysisSpan[k], 0, cell)
		}
		t0 := time.Now()
		err := f()
		an[k] = time.Since(t0)
		if tr != nil {
			tr.close(fr)
		}
		return err
	}
	var buf bytes.Buffer
	steps := [numAnalyses]func() error{
		func() error { analysisSink[0] = causal.Analyze(recs, causal.Options{Cores: cores}); return nil },
		func() error {
			analysisSink[1] = conflictgraph.Analyze(recs, conflictgraph.Options{Cores: cores})
			return nil
		},
		func() error {
			rs := make([]flightql.QueryResult, 0, len(b.queries))
			for i, q := range b.queries {
				r, err := q.RunEnv(recs, flightql.Env{Cores: cores})
				if err != nil {
					return fmt.Errorf("flightql %q: %w", postmortemQueries[i], err)
				}
				rs = append(rs, flightql.QueryResult{Query: postmortemQueries[i], Result: r})
			}
			return flightql.WriteResultsJSON(&buf, rs)
		},
		func() error { return replay.Final(recs, cores).VerifyTelemetry(*res.Telemetry) },
	}
	for k, step := range steps {
		if err := timed(k, step); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// plotBytes renders a replay grid as Figure 4's text tables, normalized to
// each workload's 1-thread CGL cell, exactly as the figure prints them.
func plotBytes(cells []cellOut) []byte {
	var plots []harness.Plot
	var threads []int
	seenTh := map[int]bool{}
	base := map[string]float64{}
	for _, co := range cells {
		if co.spec.System == harness.CGL && co.spec.Threads == 1 {
			base[co.spec.Workload] = co.res.Throughput
		}
	}
	for _, co := range cells {
		c := co.spec
		if !seenTh[c.Threads] {
			seenTh[c.Threads] = true
			threads = append(threads, c.Threads)
		}
		if len(plots) == 0 || plots[len(plots)-1].Workload != c.Workload {
			plots = append(plots, harness.Plot{Workload: c.Workload})
		}
		p := &plots[len(plots)-1]
		if len(p.Series) == 0 || p.Series[len(p.Series)-1].System != c.System {
			p.Series = append(p.Series, harness.Series{System: c.System, Points: map[int]float64{}})
		}
		if b := base[c.Workload]; b > 0 {
			p.Series[len(p.Series)-1].Points[c.Threads] = co.res.Throughput / b
		}
		if isFlexTM(c.System) {
			switch c.Threads {
			case 8:
				p.Md8, p.Mx8 = co.res.MedianConflicts, co.res.MaxConflicts
			case 16:
				p.Md16, p.Mx16 = co.res.MedianConflicts, co.res.MaxConflicts
			}
		}
	}
	var buf bytes.Buffer
	harness.PrintPlots(&buf, "figure 4 (replay)", plots, threads)
	return buf.Bytes()
}
