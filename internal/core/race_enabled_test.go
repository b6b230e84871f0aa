//go:build race

package core

// raceEnabled mirrors the -race build flag so allocation guards, which
// the detector's instrumentation can upset, can skip themselves.
const raceEnabled = true
