package sweepexec_test

// The determinism contract, pinned: every figure-level sweep in the tree
// must produce byte-identical artifacts whether it runs serially or on 2
// or 8 workers. The sweeps size their pool from GOMAXPROCS, so each test
// sets it with withProcs; the setting is process-wide, so none of these
// tests runs in parallel with another. Each case runs the figure at the
// quick test scale with telemetry and the flight recorder attached, folds
// the figure's return value AND the full OnResult stream (flight records
// and causal critical paths included) into one canonical JSON blob, and
// bytes.Equal-compares the serial blob against each parallel one. The
// campaign-shaped sweeps (chaos, soak, stress) are compared structurally,
// governor transition logs included.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"flextm/internal/causal"
	"flextm/internal/harness"
	"flextm/internal/stress"
	"flextm/internal/workloads"
)

var workerCounts = []int{2, 8}

// withProcs runs fn at GOMAXPROCS n, and so on n sweep workers, then
// restores the old setting.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// skipHeavy bows out of the expensive full-figure matrix in race builds
// (the pool tests carry the race coverage; identity is byte comparison)
// and under -short.
func skipHeavy(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("identity matrix skipped under -race: byte comparison, race coverage lives in the pool tests")
	}
	if testing.Short() {
		t.Skip("identity matrix skipped in -short mode")
	}
}

// runFigure executes one figure on the given number of workers and returns
// the canonical encoding of everything it produced.
func runFigure(t *testing.T, workers int, run func(harness.SweepConfig) (any, error)) []byte {
	t.Helper()
	sc := harness.QuickSweep()
	sc.Metrics = true
	sc.Flight = true
	var stream []map[string]any
	sc.OnResult = func(res harness.Result) {
		p := map[string]any{
			"system": res.System, "workload": res.Workload, "threads": res.Threads,
			"commits": res.Commits, "aborts": res.Aborts, "cycles": res.Cycles,
			"throughput": res.Throughput, "machine": res.Machine,
			"medianConflicts": res.MedianConflicts, "maxConflicts": res.MaxConflicts,
		}
		if res.Telemetry != nil {
			p["telemetry"] = res.Telemetry.Totals()
		}
		if res.Flight != nil {
			recs := res.Flight.Snapshot()
			p["flight"] = recs
			if rep := causal.Analyze(recs, causal.Options{Cores: sc.Machine.Cores, TopBlame: 3}); rep != nil {
				p["causal"] = rep
			}
		}
		stream = append(stream, p)
	}
	var v any
	var err error
	withProcs(workers, func() { v, err = run(sc) })
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(map[string]any{"value": v, "stream": stream})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestEveryFigureBitIdenticalUnderParallelism(t *testing.T) {
	skipHeavy(t)
	figures := []struct {
		name string
		run  func(harness.SweepConfig) (any, error)
	}{
		{"fig4", func(sc harness.SweepConfig) (any, error) { return harness.Figure4(sc) }},
		{"fig5", func(sc harness.SweepConfig) (any, error) { return harness.Figure5(sc) }},
		{"fig5mp", func(sc harness.SweepConfig) (any, error) {
			f, _ := workloads.ByName("RandomGraph")
			return harness.Multiprogram(sc, f, []int{2, 4})
		}},
		{"overflow", func(sc harness.SweepConfig) (any, error) {
			return harness.OverflowAblation(sc, []string{"RandomGraph"}, 4)
		}},
		{"sig", func(sc harness.SweepConfig) (any, error) {
			return harness.SignatureAblation(sc, "RBTree", 4, []int{256, 1024})
		}},
		{"cm", func(sc harness.SweepConfig) (any, error) {
			return harness.ManagerAblation(sc, "RandomGraph", 4)
		}},
	}
	for _, fig := range figures {
		t.Run(fig.name, func(t *testing.T) {
			serial := runFigure(t, 1, fig.run)
			for _, w := range workerCounts {
				if got := runFigure(t, w, fig.run); !bytes.Equal(serial, got) {
					t.Errorf("parallel=%d artifact differs from serial (%d vs %d bytes)",
						w, len(got), len(serial))
				}
			}
		})
	}
}

// TestChaosCampaignBitIdentical: the fault campaign's full result —
// per-cell commit/abort/escalation/injection counts and violation lists —
// is identical at any worker count.
func TestChaosCampaignBitIdentical(t *testing.T) {
	skipHeavy(t)
	spec := harness.DefaultChaosSpec()
	spec.Threads = 5
	spec.Rounds = 15
	spec.Rates = []float64{0.10}
	run := func(workers int) (res harness.ChaosResult) {
		withProcs(workers, func() { res = harness.ChaosCampaign(spec) })
		return res
	}
	serial := run(1)
	for _, w := range workerCounts {
		if got := run(w); !reflect.DeepEqual(serial, got) {
			t.Errorf("parallel=%d chaos result differs from serial", w)
		}
	}
}

// TestSoakBitIdentical: the governed soak — including every cell's
// governor transition log, the most ordering-sensitive artifact in the
// tree — is identical at any worker count.
func TestSoakBitIdentical(t *testing.T) {
	skipHeavy(t)
	run := func(workers int) (res harness.SoakResult) {
		withProcs(workers, func() { res = harness.Soak(harness.SoakConfig{Seed: 1, Cells: 3, Rounds: 15}) })
		return res
	}
	serial := run(1)
	for _, w := range workerCounts {
		got := run(w)
		if !reflect.DeepEqual(serial, got) {
			t.Errorf("parallel=%d soak result differs from serial", w)
		}
		for i := range got.Cells {
			if got.Cells[i].GovLog != serial.Cells[i].GovLog {
				t.Errorf("parallel=%d cell %d transition log differs", w, i)
			}
		}
	}
}

// TestStressExploreBitIdentical: the schedule explorer finds the same
// failures in the same seed order at any worker count — for both the
// clean protocol and the deliberately broken one. Compared via canonical
// JSON: the oracle report keeps unexported scratch state that DeepEqual
// would inspect, but the replayable artifact is its encoding.
func TestStressExploreBitIdentical(t *testing.T) {
	for _, broken := range []bool{false, true} {
		base := stress.DefaultConfig(1)
		base.BreakWR = broken
		explore := func(workers int) []byte {
			var res stress.ExploreResult
			withProcs(workers, func() { res = stress.Explore(base, 12) })
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		serial := explore(1)
		for _, w := range workerCounts {
			got := explore(w)
			if !bytes.Equal(serial, got) {
				t.Errorf("broken=%v parallel=%d explore result differs from serial", broken, w)
			}
		}
	}
}

// TestFigureErrorsMatchSerial: a failing grid reports the same error
// string at any worker count (the lowest-index failure, exactly as the
// serial loop would phrase it).
func TestFigureErrorsMatchSerial(t *testing.T) {
	run := func(workers int) string {
		sc := harness.QuickSweep()
		sc.Threads = []int{1, 999} // oversubscribes the 16-core machine
		var err error
		withProcs(workers, func() { _, err = harness.Figure5(sc) })
		if err == nil {
			t.Fatal("oversubscribed sweep succeeded")
		}
		return err.Error()
	}
	serial := run(1)
	for _, w := range workerCounts {
		if got := run(w); got != serial {
			t.Errorf("parallel=%d error %q, serial %q", w, got, serial)
		}
	}
	if serial == "" {
		t.Fatal(fmt.Errorf("empty error"))
	}
}
