//go:build !race

package oracle

const raceEnabled = false
