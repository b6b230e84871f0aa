//go:build race

package harness

// raceEnabled mirrors the -race build flag so single-threaded measurement
// tests, which the detector only slows down, can skip themselves.
const raceEnabled = true
