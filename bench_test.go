package flextm

// One benchmark per table and figure of the paper's evaluation. Each
// iteration runs a complete (reduced-size) experiment on the simulated
// machine and reports the paper's metric via b.ReportMetric:
//
//	BenchmarkFigure4    normalized throughput per workload/system/threads
//	BenchmarkFigure4Table   median/max conflict degrees at 8 and 16 threads
//	BenchmarkFigure5    eager-vs-lazy normalized throughput
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

func BenchmarkFigure4(b *testing.B) {
	for _, wf := range workloads.All() {
		systems := []harness.SystemName{harness.CGL, harness.FlexTMEager, harness.RTMF, harness.RSTM}
		if wf.Name == "Vacation-Low" || wf.Name == "Vacation-High" {
			systems = []harness.SystemName{harness.CGL, harness.FlexTMEager, harness.TL2}
		}
		for _, sys := range systems {
			for _, th := range []int{1, 8, 16} {
				wf, sys, th := wf, sys, th
				b.Run(fmt.Sprintf("%s/%s/%dT", wf.Name, sys, th), func(b *testing.B) {
					base, err := harness.Baseline(wf, tmesi.DefaultConfig(), benchOps)
					if err != nil {
						b.Fatal(err)
					}
					var norm float64
					for i := 0; i < b.N; i++ {
						res, err := harness.Run(harness.RunConfig{
							System: sys, Workload: wf, Threads: th,
							OpsPerThread: benchOps, Machine: tmesi.DefaultConfig(),
							Verify: true,
						})
						if err != nil {
							b.Fatal(err)
						}
						norm = res.Throughput / base
					}
					b.ReportMetric(norm, "normTput")
				})
			}
		}
	}
}

func BenchmarkFigure4Table(b *testing.B) {
	for _, name := range []string{"HashTable", "RBTree", "LFUCache", "RandomGraph", "Vacation-Low", "Vacation-High", "Delaunay"} {
		for _, th := range []int{8, 16} {
			name, th := name, th
			b.Run(fmt.Sprintf("%s/%dT", name, th), func(b *testing.B) {
				wf, _ := workloads.ByName(name)
				var md, mx int
				for i := 0; i < b.N; i++ {
					res, err := harness.Run(harness.RunConfig{
						System: harness.FlexTMEager, Workload: wf, Threads: th,
						OpsPerThread: benchOps, Machine: tmesi.DefaultConfig(), Verify: true,
					})
					if err != nil {
						b.Fatal(err)
					}
					md, mx = res.MedianConflicts, res.MaxConflicts
				}
				b.ReportMetric(float64(md), "medianConflicts")
				b.ReportMetric(float64(mx), "maxConflicts")
			})
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	for _, name := range []string{"RBTree", "Vacation-High", "LFUCache", "RandomGraph"} {
		for _, sys := range []harness.SystemName{harness.FlexTMEager, harness.FlexTMLazy} {
			name, sys := name, sys
			b.Run(fmt.Sprintf("%s/%s/16T", name, sys), func(b *testing.B) {
				wf, _ := workloads.ByName(name)
				base, err := harness.Run(harness.RunConfig{
					System: harness.FlexTMEager, Workload: wf, Threads: 1,
					OpsPerThread: benchOps, Machine: tmesi.DefaultConfig(), Verify: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				var norm float64
				for i := 0; i < b.N; i++ {
					res, err := harness.Run(harness.RunConfig{
						System: sys, Workload: wf, Threads: 16,
						OpsPerThread: benchOps, Machine: tmesi.DefaultConfig(), Verify: true,
					})
					if err != nil {
						b.Fatal(err)
					}
					norm = res.Throughput / base.Throughput
				}
				b.ReportMetric(norm, "normTput")
			})
		}
	}
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
