package oracle

// Test-only exports for the external oracle_test package.
var (
	RefCheck      = refCheck
	DecodeHistory = decodeHistory
	RaceEnabled   = raceEnabled
)
