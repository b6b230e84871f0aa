package harness

import (
	"bytes"
	"strings"
	"testing"

	"flextm/internal/governor"
	"flextm/internal/telemetry"
	"flextm/internal/tmesi"
	"flextm/internal/workloads"
)

// quickSweep is QuickSweep (internal/harness/testsweep.go), the one
// canonical small test sweep.
func quickSweep() SweepConfig { return QuickSweep() }

// sweep runs one workload's systems × threads grid the way Figure4 runs its
// grid, normalized to 1-thread CGL on the same workload and machine.
func sweep(sc SweepConfig, f workloads.Factory, systems []SystemName) (Plot, error) {
	plots, err := sc.normalized(f.Name, []workloads.Factory{f}, [][]SystemName{systems}, CGL)
	if err != nil {
		return Plot{}, err
	}
	return plots[0], nil
}

func TestRunProducesThroughput(t *testing.T) {
	f, _ := workloads.ByName("HashTable")
	res, err := Run(RunConfig{
		System: FlexTMLazy, Workload: f, Threads: 4, OpsPerThread: 50,
		WarmupOps: 40, Machine: tmesi.DefaultConfig(), Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits != 240 { // (40/4 warmup + 50 timed) x 4 threads
		t.Fatalf("commits = %d, want 240", res.Commits)
	}
	if res.Throughput <= 0 {
		t.Fatal("non-positive throughput")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	f, _ := workloads.ByName("HashTable")
	if _, err := Run(RunConfig{System: FlexTMLazy, Workload: f, Threads: 99,
		Machine: tmesi.DefaultConfig()}); err == nil {
		t.Fatal("oversubscribed run accepted")
	}
	if _, err := Run(RunConfig{System: "bogus", Workload: f, Threads: 1,
		Machine: tmesi.DefaultConfig()}); err == nil {
		t.Fatal("unknown system accepted")
	}
	// A negative count used to run no timed ops and report a negative
	// throughput (Threads*ops < 0).
	if _, err := Run(RunConfig{System: FlexTMLazy, Workload: f, Threads: 2,
		OpsPerThread: -3, Machine: tmesi.DefaultConfig()}); err == nil {
		t.Fatal("negative OpsPerThread accepted")
	}
	if _, err := Run(RunConfig{System: FlexTMLazy, Workload: f, Threads: 2,
		WarmupOps: -1, Machine: tmesi.DefaultConfig()}); err == nil {
		t.Fatal("negative WarmupOps accepted")
	}
}

// TestRunRejectsCoreCountOutOfRange: a machine the directory cannot
// address is an error from Run, not a panic from tmesi.New.
func TestRunRejectsCoreCountOutOfRange(t *testing.T) {
	f, _ := workloads.ByName("HashTable")
	m := tmesi.DefaultConfig()
	m.Cores = 65
	_, err := Run(RunConfig{System: FlexTMLazy, Workload: f, Threads: 8, Machine: m})
	if err == nil || !strings.Contains(err.Error(), "65 cores") {
		t.Fatalf("err = %v", err)
	}
}

// TestGovernorRequiresFlexTM: a governor cannot bind to a software
// runtime, and Run says so.
func TestGovernorRequiresFlexTM(t *testing.T) {
	f, _ := workloads.ByName("HashTable")
	_, err := Run(RunConfig{
		System: CGL, Workload: f, Threads: 2, OpsPerThread: 10,
		Machine: tmesi.DefaultConfig(), Govern: governor.New(governor.Config{}),
	})
	if err == nil || err.Error() != "harness: governor requires a FlexTM runtime, not CGL" {
		t.Fatalf("err = %v", err)
	}
}

func TestEverySystemConstructs(t *testing.T) {
	for _, n := range []SystemName{CGL, FlexTMEager, FlexTMLazy, RTMF, RSTM, TL2} {
		if _, err := NewRuntime(n, tmesi.New(tmesi.DefaultConfig())); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
	}
}

func TestHashTableScalesAndFlexTMBeatsSTM(t *testing.T) {
	sc := quickSweep()
	f, _ := workloads.ByName("HashTable")
	plot, err := sweep(sc, f, []SystemName{FlexTMEager, RSTM})
	if err != nil {
		t.Fatal(err)
	}
	var flex, rstmS Series
	for _, s := range plot.Series {
		switch s.System {
		case FlexTMEager:
			flex = s
		case RSTM:
			rstmS = s
		}
	}
	if flex.Points[4] <= flex.Points[1] {
		t.Errorf("HashTable on FlexTM does not scale: 1T=%.2f 4T=%.2f",
			flex.Points[1], flex.Points[4])
	}
	if flex.Points[4] <= rstmS.Points[4] {
		t.Errorf("FlexTM (%.2f) not faster than RSTM (%.2f) at 4 threads",
			flex.Points[4], rstmS.Points[4])
	}
}

func TestFigure5LazyHelpsContendedWorkloads(t *testing.T) {
	// At paper scale (16 threads, enough operations) lazy conflict
	// management must beat eager on the contended workloads (Figure 5a-d).
	sc := quickSweep()
	sc.Threads = []int{16}
	sc.Ops = 400
	// RBTree shows a solid lazy win; RandomGraph's is narrower in this
	// model (our eager contention manager avoids the worst mid-flight
	// abort cascades), so assert lazy is at least competitive there. Both
	// series share one normalization base, so the ratio does not depend on
	// which 1-thread run the base is.
	minRatio := map[string]float64{"RBTree": 1.0, "RandomGraph": 0.95}
	for _, name := range []string{"RandomGraph", "RBTree"} {
		f, _ := workloads.ByName(name)
		plot, err := sweep(sc, f, []SystemName{FlexTMEager, FlexTMLazy})
		if err != nil {
			t.Fatal(err)
		}
		var eager, lazy Series
		for _, s := range plot.Series {
			if s.System == FlexTMEager {
				eager = s
			} else {
				lazy = s
			}
		}
		if lazy.Points[16] < minRatio[name]*eager.Points[16] {
			t.Errorf("%s: lazy (%.2f) below %.2fx eager (%.2f) at 16T",
				name, lazy.Points[16], minRatio[name], eager.Points[16])
		}
	}
}

func TestMultiprogramEagerDonatesMoreToPrime(t *testing.T) {
	sc := quickSweep()
	sc.Ops = 60
	f, _ := workloads.ByName("RandomGraph")
	pts, err := Multiprogram(sc, f, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	var eagerP, lazyP float64
	for _, p := range pts {
		if p.Mode == FlexTMEager {
			eagerP = p.PrimeNorm
		} else {
			lazyP = p.PrimeNorm
		}
	}
	if eagerP <= 0 || lazyP <= 0 {
		t.Fatalf("prime made no progress: eager=%.2f lazy=%.2f", eagerP, lazyP)
	}
}

func TestOverflowAblationMeasuresCost(t *testing.T) {
	sc := quickSweep()
	sc.Ops = 60
	res, err := OverflowAblation(sc, []string{"RandomGraph"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results = %+v", res)
	}
	if res[0].Overflows == 0 {
		t.Fatal("small-L1 ablation produced no overflows")
	}
	if res[0].Slowdown <= 0 {
		t.Fatal("no slowdown computed")
	}
}

func TestPrintPlots(t *testing.T) {
	var buf bytes.Buffer
	PrintPlots(&buf, "test", []Plot{{
		Workload: "X",
		Series:   []Series{{System: CGL, Points: map[int]float64{1: 1, 4: 2}}},
	}}, []int{1, 4})
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestSignatureAblationNarrowHurts(t *testing.T) {
	sc := quickSweep()
	sc.Ops = 100
	res, err := SignatureAblation(sc, "RBTree", 8, []int{256, 2048})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("res = %+v", res)
	}
	narrow, wide := res[0], res[1]
	if narrow.AbortRate < wide.AbortRate {
		t.Errorf("narrow signature (%d bits, %.2f aborts/commit) should alias more than wide (%d, %.2f)",
			narrow.Bits, narrow.AbortRate, wide.Bits, wide.AbortRate)
	}
}

func TestManagerAblationRuns(t *testing.T) {
	sc := quickSweep()
	sc.Ops = 60
	res, err := ManagerAblation(sc, "RandomGraph", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 12 {
		t.Fatalf("want 12 rows (6 managers x 2 modes), got %d", len(res))
	}
	for _, r := range res {
		if r.Throughput <= 0 {
			t.Errorf("%s/%s: zero throughput", r.Mode, r.Manager)
		}
	}
}

func TestRunWithMetricsAttachesTelemetry(t *testing.T) {
	f, _ := workloads.ByName("HashTable")
	rc := RunConfig{
		System: FlexTMEager, Workload: f, Threads: 4, OpsPerThread: 50,
		WarmupOps: 40, Machine: tmesi.DefaultConfig(), Verify: true,
	}
	plain, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Telemetry != nil {
		t.Fatal("telemetry present without Metrics")
	}
	rc.Metrics = true
	res, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry == nil {
		t.Fatal("Metrics run returned no telemetry snapshot")
	}
	snap := *res.Telemetry
	if snap.Empty() {
		t.Fatal("telemetry snapshot is empty")
	}
	// The attribution layer and the runtime's own stats must agree.
	a := snap.Attribution()
	if a.Commits != res.Commits {
		t.Fatalf("attributed commits = %d, stats commits = %d", a.Commits, res.Commits)
	}
	if a.Aborts != res.Aborts {
		t.Fatalf("attributed aborts = %d, stats aborts = %d", a.Aborts, res.Aborts)
	}
	// The protocol layer counted the same CAS-Commit successes.
	if ok := snap.Total(telemetry.CtrCommitOK); ok != res.Commits {
		t.Fatalf("cas-commit-ok = %d, commits = %d", ok, res.Commits)
	}
	// Every committed transaction spent some cycles; most of them useful.
	if a.Useful == 0 || a.Total() == 0 {
		t.Fatalf("degenerate attribution %+v", a)
	}
	// Commit-cycle histogram saw every commit.
	if h := snap.Hist(telemetry.HistCommitCycles); h.Count != res.Commits {
		t.Fatalf("commit histogram n=%d, commits=%d", h.Count, res.Commits)
	}
	// Signature accounting is consistent: with audit mode on, observed and
	// predicted FP rates are both probabilities.
	obs, pred := snap.SigFPRates()
	if obs < 0 || obs > 1 || pred < 0 || pred > 1 {
		t.Fatalf("FP rates out of range: observed=%f predicted=%f", obs, pred)
	}
}

func TestMetricsOverheadStaysDisabled(t *testing.T) {
	// Without Metrics, the machine's registry must stay nil so the
	// instrumentation sites take only their nil-check branch.
	sys := tmesi.New(tmesi.DefaultConfig())
	if sys.Telemetry() != nil {
		t.Fatal("fresh system has telemetry attached")
	}
}

func TestSignatureAblationReportsFPRates(t *testing.T) {
	sc := quickSweep()
	res, err := SignatureAblation(sc, "HashTable", 4, []int{256, 4096})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("points = %d", len(res))
	}
	// A 64-bit signature aliases far more than a 2048-bit one.
	if res[0].ObservedFP < res[1].ObservedFP {
		t.Fatalf("narrow FP %f < wide FP %f", res[0].ObservedFP, res[1].ObservedFP)
	}
	for _, r := range res {
		if r.ObservedFP < 0 || r.ObservedFP > 1 || r.PredictedFP < 0 || r.PredictedFP > 1 {
			t.Fatalf("FP rates out of range: %+v", r)
		}
	}
}

// TestFigure4BasesOutsideTheGrid: without a 1-thread column Figure 4 runs
// its CGL bases outside the grid, and every 4-thread point equals, bit for
// bit, the one a sweep with the 1-thread column computes from its own CGL
// cells.
func TestFigure4BasesOutsideTheGrid(t *testing.T) {
	sc := quickSweep()
	sc.Threads = []int{1, 4}
	in, err := Figure4(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Threads = []int{4}
	out, err := Figure4(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range out {
		for j, s := range p.Series {
			if got, want := s.Points[4], in[i].Series[j].Points[4]; got != want || len(s.Points) != 1 {
				t.Errorf("%s %s: 4-thread point %v (of %d), want %v", p.Workload, s.System, got, len(s.Points), want)
			}
		}
	}
}

func TestSweepOnResultObservesEveryPoint(t *testing.T) {
	sc := quickSweep()
	sc.Metrics = true
	var seen int
	sc.OnResult = func(res Result) {
		seen++
		if res.Telemetry == nil {
			t.Errorf("%s@%d: no telemetry under Metrics sweep", res.System, res.Threads)
		}
	}
	f, _ := workloads.ByName("HashTable")
	if _, err := sweep(sc, f, []SystemName{FlexTMEager}); err != nil {
		t.Fatal(err)
	}
	if want := len(sc.Threads); seen != want {
		t.Fatalf("OnResult fired %d times, want %d", seen, want)
	}
}
