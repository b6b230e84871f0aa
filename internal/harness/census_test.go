package harness

import (
	"testing"

	"flextm/internal/tmesi"
	"flextm/internal/workloads"
)

// TestFigure5ProbeCensus runs the Figure 5 grid (eager and lazy FlexTM on
// the four contended workloads at 1..16 threads, default run length) with
// signature audit on, and checks that the directory's holder index cuts
// probe-round L1 lookups by at least 80% against a full broadcast, which
// looks up every other core in every round. -v prints the per-cell census
// recorded in EXPERIMENTS.md. The simulation runs on one goroutine, so the
// test skips itself under the race detector.
func TestFigure5ProbeCensus(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine measurement; nothing for the race detector")
	}
	sc := DefaultSweep()
	if testing.Short() {
		sc.Threads = []int{16}
	}
	var total tmesi.ProbeCensus
	t.Logf("%-14s %-13s %3s %8s %9s %8s %9s %6s", "workload", "system", "T", "rounds", "visits", "lookups", "nonholder", "alias")
	for _, name := range []string{"RBTree", "Vacation-High", "LFUCache", "RandomGraph"} {
		f, _ := workloads.ByName(name)
		for _, sys := range []SystemName{FlexTMEager, FlexTMLazy} {
			for _, th := range sc.Threads {
				_, m, err := run(RunConfig{
					System: sys, Workload: f, Threads: th, OpsPerThread: sc.Ops,
					Machine: sc.Machine, Verify: true, Metrics: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				pc := m.ProbeCensus()
				t.Logf("%-14s %-13s %3d %8d %9d %8d %9d %6d", name, sys, th, pc.Rounds, pc.Visits, pc.Lookups, pc.NonHolder, pc.NonHolderAlias)
				total.Rounds += pc.Rounds
				total.Visits += pc.Visits
				total.Lookups += pc.Lookups
				total.NonHolder += pc.NonHolder
				total.NonHolderAlias += pc.NonHolderAlias
			}
		}
	}
	broadcast := total.Rounds * uint64(sc.Machine.Cores-1)
	t.Logf("total %+v; a broadcast makes %d lookups (%.1f%% saved)", total, broadcast, 100*(1-float64(total.Lookups)/float64(broadcast)))
	if total.Lookups*5 > broadcast {
		t.Fatalf("probe lookups %d, more than 20%% of the broadcast's %d", total.Lookups, broadcast)
	}
}
