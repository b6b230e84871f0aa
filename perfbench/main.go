// Command perfbench is the repository's outside-in host-time benchmark. It
// runs one workload through the public harness and sweepexec entry points,
// checks every cell's simulated output against golden digests, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// separate traced run) as the last line of standard output:
//
//	bash perfbench/run.sh --workload fig5-flextm --seed 0 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and the golden-digest rule.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// e2eUnits are the end-to-end metrics of an untraced run.
var e2eUnits = map[string]string{
	"wall_s":                "s",
	"simops_per_s":          "op/s",
	"ns_per_simop_p50":      "ns",
	"allocs_per_simop":      "count",
	"alloc_bytes_per_simop": "B",
	"max_rss_mb":            "MB",
	"setup_s":               "s",
	"ok_ratio":              "ratio",
}

// setupReps is how many times a timed run sets up; setup_s is the median.
const setupReps = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (fig5-flextm, fig4-software, postmortem, fig4-replay)")
	seed := fs.Uint64("seed", 0, "input seed; 0 reproduces paperbench's inputs")
	seconds := fs.Int("seconds", 10, "how long the timed passes run")
	traced := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	root := fs.String("root", ".", "repository root; the benchmark writes only under root/.bench_build")
	regen := fs.Bool("regen", false, "rewrite perfbench/golden for every workload and golden seed, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *regen {
		if err := regenGoldens(*root, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	b := &bench{w: w, seed: *seed, root: *root, workers: runtime.NumCPU()}
	host := newHostInfo(*root)
	var (
		res result
		err error
	)
	if *traced == 1 {
		res, err = b.tracedRun(host)
	} else {
		res, err = b.timedRun(*seconds)
	}
	if cerr := b.closeStore(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.Correct = res.Failed == 0
	for _, e := range b.errs {
		fmt.Fprintln(stderr, "perfbench: FAIL", e)
	}
	if err := report(stdout, b, host, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range benchWorkloads() {
		out = append(out, w.name)
	}
	return out
}

// report prints the host record, the digests of a seed without goldens,
// a readable metric table, and finally the result line.
func report(out io.Writer, b *bench, host hostInfo, res result) error {
	hj, _ := json.Marshal(host)
	fmt.Fprintf(out, "# host %s\n", hj)
	fmt.Fprintf(out, "# workload %s seed %d: %d cells attempted, %d failed, fail_ratio %g\n",
		b.w.name, b.seed, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	if b.golden == nil {
		ids := make([]string, 0, len(b.firstDigests))
		for id := range b.firstDigests {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Fprintf(out, "# digest %s %s\n", id, b.firstDigests[id])
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "# %-34s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("result line: %w", err) // a NaN or Inf metric
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// timedRun sets up setupReps times, then runs untraced passes for seconds
// and reports the end-to-end metrics.
func (b *bench) timedRun(seconds int) (result, error) {
	res := result{Metrics: map[string]metric{}}
	var setups []float64
	for k := 0; k < setupReps; k++ {
		t0 := time.Now()
		fill, err := b.setup(k)
		if err != nil {
			return res, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		res.Attempted += fill.attempted
		res.Failed += fill.failed
	}
	var m0, m1 runtime.MemStats
	runtime.GC() // set-up's garbage is not the timed passes' to collect
	runtime.ReadMemStats(&m0)
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	var walls, rates, cellNs []float64
	var simops uint64
	for len(walls) == 0 || time.Now().Before(deadline) {
		p := b.pass(passOpts{warm: b.w.replay})
		if len(walls) == 0 {
			b.firstDigests = p.digests
		}
		res.Attempted += p.attempted
		res.Failed += p.failed
		var ops uint64
		var busy time.Duration
		for _, co := range p.cells {
			ops += co.simops
			busy += co.dur
			if co.simops > 0 {
				cellNs = append(cellNs, float64(co.dur.Nanoseconds())/float64(co.simops))
			}
		}
		simops += ops
		walls = append(walls, p.wall.Seconds())
		rates = append(rates, float64(ops)/busy.Seconds())
	}
	runtime.ReadMemStats(&m1)
	put := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: e2eUnits[name]} }
	put("wall_s", median(walls))
	put("simops_per_s", median(rates))
	put("ns_per_simop_p50", median(cellNs))
	put("allocs_per_simop", float64(m1.Mallocs-m0.Mallocs)/float64(max(simops, 1)))
	put("alloc_bytes_per_simop", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(max(simops, 1)))
	put("max_rss_mb", maxRSSMB())
	put("setup_s", median(setups))
	put("ok_ratio", float64(res.Attempted-res.Failed)/float64(max(res.Attempted, 1)))
	return res, nil
}

// maxRSSMB is the process's peak resident set.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// tracedRun is the separate traced run: an untraced reference pass, a
// traced pass, a telemetry pass where the grid does not already carry
// Metrics, the layer probes and, for postmortem, the instrument prices.
func (b *bench) tracedRun(host hostInfo) (result, error) {
	res := result{Metrics: map[string]metric{}}
	fill, err := b.setup(0)
	if err != nil {
		return res, err
	}
	res.Attempted += fill.attempted
	res.Failed += fill.failed

	// Each timed pass of the traced run starts from a collected heap, so
	// one pass's garbage is not charged to the next.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	u := b.pass(passOpts{warm: b.w.replay})
	runtime.ReadMemStats(&m1)
	b.firstDigests = u.digests
	tr := newTracer(len(b.w.grid))
	runtime.GC()
	t := b.pass(passOpts{tr: tr, warm: b.w.replay})
	counted := u
	passes := []passOut{u, t}
	if !b.w.replay && !b.w.postmortem {
		counted = b.pass(passOpts{metrics: true})
		passes = append(passes, counted)
	}
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		// Tracing and telemetry must leave simulated results unchanged.
		for id, d := range u.digests {
			if p.digests[id] != d {
				res.Failed++
				b.note(fmt.Sprintf("%s: digest %s differs from the untraced pass (%s)", id, p.digests[id], d))
			}
		}
	}
	in := layerInput{
		b: b, untraced: u, traced: t, counted: counted, tr: tr,
		gcCycles: m1.NumGC - m0.NumGC, gcPause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
		heapSys: m1.HeapSys,
	}
	if b.w.postmortem {
		prices, attempted, failed := b.instrumentPrices()
		in.prices = prices
		res.Attempted += attempted
		res.Failed += failed
	}
	res.Metrics = layerMetrics(in)
	path := filepath.Join(b.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", b.w.name, b.seed))
	if err := tr.write(path, b.w.name, b.seed, host); err != nil {
		return res, fmt.Errorf("writing spans: %w", err)
	}
	return res, nil
}

// priceReps is how many interleaved rounds instrumentPrices runs; each
// configuration keeps its fastest round, the one least disturbed by the
// rest of the host.
const priceReps = 3

// instrumentPrices runs the postmortem grid bare and with each instrument
// alone, and returns each instrument's host ns per simulated op over the
// bare cells (flight, telemetry, oracle).
func (b *bench) instrumentPrices() (prices [3]float64, attempted, failed int) {
	sets := []instruments{{}, {flight: true}, {metrics: true}, {oracle: true}}
	var best [4]time.Duration
	var ops uint64
	for r := 0; r < priceReps; r++ {
		for k := range sets {
			runtime.GC()
			p := b.pass(passOpts{instr: &sets[k]})
			attempted += p.attempted
			failed += p.failed
			var d time.Duration
			ops = 0
			for _, co := range p.cells {
				d += co.dur
				ops += co.simops
			}
			if r == 0 || d < best[k] {
				best[k] = d
			}
		}
	}
	for k := range prices {
		prices[k] = float64((best[k+1] - best[0]).Nanoseconds()) / float64(max(ops, 1))
	}
	return prices, attempted, failed
}

// regenGoldens rewrites the golden digests of every workload for every
// golden seed from one pass each.
func regenGoldens(root string, log io.Writer) error {
	for _, seed := range goldenSeeds {
		g := goldenFile{Seed: seed, Workloads: map[string]map[string]string{}}
		for _, w := range benchWorkloads() {
			b := &bench{w: w, seed: seed, root: root, workers: runtime.NumCPU(), regen: true}
			fill, err := b.setup(0)
			if err != nil {
				return err
			}
			p := b.pass(passOpts{warm: w.replay})
			if cerr := b.closeStore(); cerr != nil {
				return cerr
			}
			if fill.failed+p.failed > 0 {
				return fmt.Errorf("%s seed %d: %v", w.name, seed, b.errs)
			}
			for id, d := range fill.digests {
				if p.digests[id] != d {
					return fmt.Errorf("%s seed %d: %s differs between cold fill and warm replay", w.name, seed, id)
				}
			}
			g.Workloads[w.name] = p.digests
			fmt.Fprintf(log, "perfbench: %s seed %d: %d digests\n", w.name, seed, len(p.digests))
		}
		if err := writeGoldens(filepath.Join(root, "perfbench", "golden"), g); err != nil {
			return err
		}
	}
	return nil
}
