package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"flextm/internal/fault"
	"flextm/internal/oracle"
	"flextm/internal/tmesi"
	"flextm/internal/workloads"
)

// assemblyGolden pins the run shapes the side-thread golden does not
// cover — the contention-manager and multiprogramming cells, an
// instrumented FlexTM run, and the software and RTM-F baselines — to the
// results the simulator produced before machine assembly moved into
// internal/rig.
const assemblyGolden = "testdata/assembly_runs.json"

// resultGolden is the part of a Result a run's assembly decides.
type resultGolden struct {
	System          SystemName
	Workload        string
	Threads         int
	Commits         uint64
	Aborts          uint64
	Escalations     uint64
	Cycles          uint64
	Throughput      float64
	MedianConflicts int
	MaxConflicts    int
	Machine         string
	Telemetry       string         `json:",omitempty"`
	Flight          string         `json:",omitempty"`
	FlightRecs      int            `json:",omitempty"`
	Faults          *fault.Report  `json:",omitempty"`
	Oracle          *oracle.Report `json:",omitempty"`
}

func resultOf(res Result) resultGolden {
	g := resultGolden{
		System: res.System, Workload: res.Workload, Threads: res.Threads,
		Commits: res.Commits, Aborts: res.Aborts, Escalations: res.Escalations,
		Cycles: uint64(res.Cycles), Throughput: res.Throughput,
		MedianConflicts: res.MedianConflicts, MaxConflicts: res.MaxConflicts,
		Machine: digest(res.Machine), Faults: res.FaultReport, Oracle: res.OracleReport,
	}
	if res.Telemetry != nil {
		g.Telemetry = digest(*res.Telemetry)
	}
	if res.Flight != nil {
		recs := res.Flight.Snapshot()
		g.Flight, g.FlightRecs = digest(recs), len(recs)
	}
	return g
}

// assemblyRuns executes the pinned run set and renders it canonically.
func assemblyRuns(t *testing.T) []byte {
	t.Helper()
	doc := map[string]any{}
	sc := QuickSweep()

	mgr, err := ManagerAblation(sc, "RandomGraph", 4)
	if err != nil {
		t.Fatal(err)
	}
	doc["manager"] = mgr

	rb, _ := workloads.ByName("RBTree")
	mp, err := Multiprogram(sc, rb, []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	doc["multiprogram"] = mp

	hash, _ := workloads.ByName("HashTable")
	inst, err := Run(RunConfig{
		System: FlexTMEager, Workload: rb, Threads: 4, OpsPerThread: 60,
		Machine: tmesi.DefaultConfig(), Verify: true, Oracle: true, Metrics: true, Flight: true,
		Faults:        fault.Config{Seed: 5}.WithRate(fault.SigFalsePos, 0.1).WithRate(fault.AlertLoss, 0.05),
		FlightPerCore: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	doc["instrumented"] = resultOf(inst)

	var baselines []resultGolden
	for _, sys := range []SystemName{CGL, RSTM, TL2, RTMF} {
		f := hash
		if sys == TL2 {
			f, _ = workloads.ByName("Vacation-Low")
		}
		res, err := Run(RunConfig{
			System: sys, Workload: f, Threads: 4, OpsPerThread: 40,
			Machine: tmesi.DefaultConfig(), Verify: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		baselines = append(baselines, resultOf(res))
	}
	doc["baselines"] = baselines

	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestAssemblyRunsMatchParent: assembling every machine in one place must
// leave each simulated result byte-identical — manager-ablation cells,
// multiprogramming points with their isolated runs, an oracle-checked
// faulty FlexTM run with a custom flight ring, and the CGL, RSTM, TL2 and
// RTM-F baselines. The runs are single-goroutine simulations, so the test
// skips itself under the race detector.
func TestAssemblyRunsMatchParent(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine simulations; nothing for the race detector")
	}
	want, err := os.ReadFile(assemblyGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := assemblyRuns(t)
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("assembly runs diverged from %s at line %d:\n got %s\nwant %s",
				assemblyGolden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("assembly runs diverged from %s: %d lines, want %d", assemblyGolden, len(gl), len(wl))
}
