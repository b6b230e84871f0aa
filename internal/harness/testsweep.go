package harness

import "flextm/internal/tmesi"

// QuickSweep is the one canonical small sweep shared by the harness tests,
// the observation-plane tests, and the root benchmarks: the default
// machine, two thread counts, and an op budget just large enough to
// exercise contention. Tests that need a variation take a copy and
// override fields rather than re-deriving the configuration, so "the quick
// test sweep" means one thing across the tree.
func QuickSweep() SweepConfig {
	return SweepConfig{
		Machine: tmesi.DefaultConfig(),
		Threads: []int{1, 4},
		Ops:     40,
	}
}
