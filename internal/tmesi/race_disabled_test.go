//go:build !race

package tmesi

const raceEnabled = false
