//go:build race

package oracle

// raceEnabled mirrors the -race build flag: the detector allocates on its
// own and slows the differential test's live runs.
const raceEnabled = true
