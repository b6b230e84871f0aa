package oracle

// Test-only exports for the external oracle_test package.
var (
	RefCheck      = refCheck
	DecodeHistory = decodeHistory
	RaceEnabled   = raceEnabled
)

// CheckCapped is Check with a witness cap of maxViolations.
func CheckCapped(h History, maxViolations int) *Report {
	return checkLog(opLog{chunks: [][]Op{h.Ops}, shift: flatShift}, h.Initial, maxViolations)
}

// CheckCapped is Check with a witness cap of maxViolations.
func (r *Recorder) CheckCapped(maxViolations int) *Report {
	return checkLog(opLog{chunks: r.chunks, shift: chunkShift}, r.initial, maxViolations)
}
