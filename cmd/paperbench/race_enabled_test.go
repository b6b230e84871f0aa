//go:build race

package main

// raceEnabled mirrors the -race build flag so the sweep byte comparisons —
// the quick Figure 4 and causal sweeps, many times slower under the
// detector — can skip themselves in race builds.
const raceEnabled = true
