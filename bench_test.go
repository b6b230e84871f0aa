package flextm

// One benchmark per table and figure of the paper's evaluation. Each
// iteration runs a complete (reduced-size) experiment on the simulated
// machine and reports the paper's metric via b.ReportMetric:
//
//	BenchmarkFigure4    normalized throughput per workload/system/threads
//	BenchmarkFigure4Table   Figure 4's median/max conflict degrees at 8 and 16 threads
//	BenchmarkFigure5    eager-vs-lazy normalized throughput and conflict degrees
//	BenchmarkFigure5MP  multiprogramming with Prime (Fig 5e,f)
//	BenchmarkTable2     area estimates
//	BenchmarkTable4     FlexWatcher vs Discover slowdowns
//	BenchmarkOverflow   Section 7.3 overflow ablation
//
// cmd/paperbench runs the full-size sweeps and prints the paper-style
// tables; these benches keep the experiments wired into `go test -bench`.

import (
	"fmt"
	"testing"

	"flextm/internal/area"
	"flextm/internal/flexwatcher"
	"flextm/internal/harness"
	"flextm/internal/tmesi"
	"flextm/internal/workloads"
)

const benchOps = 120

// benchSweep is the benchmark-scale variant of the canonical test sweep:
// same machine, more threads and ops.
func benchSweep() harness.SweepConfig {
	sc := harness.QuickSweep()
	sc.Threads = []int{1, 8, 16}
	sc.Ops = benchOps
	return sc
}

// figurePlots runs a normalized-throughput figure b.N times on
// benchSweep and returns the last run's plots.
func figurePlots(b *testing.B, figure func(harness.SweepConfig) ([]harness.Plot, error)) []harness.Plot {
	var plots []harness.Plot
	for i := 0; i < b.N; i++ {
		var err error
		if plots, err = figure(benchSweep()); err != nil {
			b.Fatal(err)
		}
	}
	return plots
}

// reportPoints reports every plotted point as
// normTput/<workload>/<system>/<threads>T.
func reportPoints(b *testing.B, plots []harness.Plot) {
	for _, p := range plots {
		for _, s := range p.Series {
			for th, v := range s.Points {
				b.ReportMetric(v, fmt.Sprintf("normTput/%s/%s/%dT", p.Workload, s.System, th))
			}
		}
	}
}

// reportConflicts reports each plot's median and max conflict degrees of
// the FlexTM runs at 8 and 16 threads.
func reportConflicts(b *testing.B, plots []harness.Plot) {
	for _, p := range plots {
		for _, m := range []struct {
			unit string
			v    int
		}{
			{"medianConflicts/%s/8T", p.Md8}, {"maxConflicts/%s/8T", p.Mx8},
			{"medianConflicts/%s/16T", p.Md16}, {"maxConflicts/%s/16T", p.Mx16},
		} {
			b.ReportMetric(float64(m.v), fmt.Sprintf(m.unit, p.Workload))
		}
	}
}

func BenchmarkFigure4(b *testing.B) { reportPoints(b, figurePlots(b, harness.Figure4)) }

func BenchmarkFigure4Table(b *testing.B) { reportConflicts(b, figurePlots(b, harness.Figure4)) }

func BenchmarkFigure5(b *testing.B) {
	plots := figurePlots(b, harness.Figure5)
	reportPoints(b, plots)
	reportConflicts(b, plots)
}

func BenchmarkFigure5MP(b *testing.B) {
	for _, name := range []string{"RandomGraph", "LFUCache"} {
		name := name
		b.Run("Prime+"+name, func(b *testing.B) {
			wf, _ := workloads.ByName(name)
			sc := benchSweep()
			sc.Ops = 80
			var eagerPrime, lazyPrime float64
			for i := 0; i < b.N; i++ {
				pts, err := harness.Multiprogram(sc, wf, []int{8})
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range pts {
					if p.Mode == harness.FlexTMEager {
						eagerPrime = p.PrimeNorm
					} else {
						lazyPrime = p.PrimeNorm
					}
				}
			}
			b.ReportMetric(eagerPrime, "primeNormEager")
			b.ReportMetric(lazyPrime, "primeNormLazy")
		})
	}
}

// BenchmarkSweep times a Figure-5-shaped grid on GOMAXPROCS workers: run
// it with -cpu 1,N to compare one worker against N. Every worker count
// produces byte-identical plots (pinned by internal/sweepexec's identity
// tests); the measured speedup is recorded in BENCH_baseline.json's
// "sweepSpeedup" note whenever the baseline is regenerated.
func BenchmarkSweep(b *testing.B) {
	sc := benchSweep()
	for i := 0; i < b.N; i++ {
		if _, err := harness.Figure5(sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	var est area.Estimate
	for i := 0; i < b.N; i++ {
		for _, p := range area.All() {
			est = area.ForProcessor(p)
		}
	}
	b.ReportMetric(est.CorePct, "niagara2CorePct")
}

func BenchmarkTable4(b *testing.B) {
	cfg := tmesi.DefaultConfig()
	cfg.Cores = 2
	var rows []flexwatcher.Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = flexwatcher.Table4(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.FlexWatcherX, r.Program+"_fxw_x")
	}
}

func BenchmarkOverflow(b *testing.B) {
	// The overflow ablation needs the full calibrated scale or its few
	// hundred overflow events drown in scheduling noise.
	sc := benchSweep()
	sc.Ops = 300
	var res []harness.OverflowResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.OverflowAblation(sc, []string{"RandomGraph"}, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(res) > 0 {
		b.ReportMetric((res[0].Slowdown-1)*100, "slowdownPct")
		b.ReportMetric(float64(res[0].Overflows), "overflows")
	}
}

func BenchmarkSignatureAblation(b *testing.B) {
	sc := benchSweep()
	sc.Ops = 80
	var res []harness.SigResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.SignatureAblation(sc, "RBTree", 8, []int{256, 2048})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res {
		b.ReportMetric(r.AbortRate, fmt.Sprintf("abortsPerCommit_%db", r.Bits))
	}
}

func BenchmarkManagerAblation(b *testing.B) {
	sc := benchSweep()
	sc.Ops = 60
	var res []harness.ManagerResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.ManagerAblation(sc, "RandomGraph", 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res {
		if r.Mode == "Eager" {
			b.ReportMetric(r.Throughput, r.Manager+"_tput")
		}
	}
}
