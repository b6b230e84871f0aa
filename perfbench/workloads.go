package main

import (
	"fmt"

	"flextm/internal/harness"
)

// cellSpec is one sweep cell of a workload's grid.
type cellSpec struct {
	System   harness.SystemName
	Workload string
	Threads  int
}

// id names the cell in goldens, spans and diagnostics.
func (c cellSpec) id() string { return fmt.Sprintf("%s/%s@%d", c.System, c.Workload, c.Threads) }

// workload is one input set of the benchmark: a grid of cells plus the
// switches that say how they run.
type workload struct {
	name string
	grid []cellSpec
	// ops and warmup size every cell (harness.RunConfig.OpsPerThread and
	// WarmupOps).
	ops, warmup int
	// postmortem cells run with Metrics, Flight and Oracle on, and each is
	// followed by the analysis pipeline (causal, conflictgraph, FlightQL,
	// replay).
	postmortem bool
	// replay cells run with Metrics and Flight on from a cell store that
	// set-up fills cold; the timed passes replay it warm on nproc workers.
	replay bool
}

// The workload sets of Figures 4 and 5, and the FlexTM systems.
var (
	ws1      = []string{"HashTable", "RBTree", "LFUCache", "RandomGraph", "Delaunay"}
	vacation = []string{"Vacation-Low", "Vacation-High"}
	fig5Set  = []string{"RBTree", "Vacation-High", "LFUCache", "RandomGraph"}
	flexTM   = []harness.SystemName{harness.FlexTMEager, harness.FlexTMLazy}
)

// grid lists systems × workloads × threads in sweep order.
func grid(systems []harness.SystemName, names []string, threads ...int) []cellSpec {
	var out []cellSpec
	for _, name := range names {
		for _, sys := range systems {
			for _, th := range threads {
				out = append(out, cellSpec{System: sys, Workload: name, Threads: th})
			}
		}
	}
	return out
}

// benchWorkloads is the benchmark's workload table. Why each exists is
// recorded in README.md and BENCHMARK.json.
func benchWorkloads() []workload {
	software := append(
		grid([]harness.SystemName{harness.CGL, harness.RSTM}, ws1, 1, 16),
		grid([]harness.SystemName{harness.CGL, harness.TL2}, vacation, 1, 16)...)
	replay := append(
		grid([]harness.SystemName{harness.CGL, harness.FlexTMEager, harness.RTMF, harness.RSTM}, ws1, 1, 4),
		grid([]harness.SystemName{harness.CGL, harness.FlexTMEager, harness.TL2}, vacation, 1, 4)...)
	return []workload{
		{
			name: "fig5-flextm",
			grid: grid(flexTM, fig5Set, 1, 16),
			ops:  60, warmup: 256,
		},
		{
			name: "fig4-software",
			grid: software,
			ops:  16, warmup: 64,
		},
		{
			name: "postmortem",
			grid: grid(flexTM, []string{"RBTree", "RandomGraph"}, 16),
			ops:  60, warmup: 256,
			postmortem: true,
		},
		{
			name: "fig4-replay",
			grid: replay,
			ops:  20, warmup: 64,
			replay: true,
		},
	}
}

// workloadByName finds a workload of the table.
func workloadByName(name string) (workload, bool) {
	for _, w := range benchWorkloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
