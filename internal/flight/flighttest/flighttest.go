// Package flighttest generates seeded random flight-record streams for the
// tests of the packages that read them (replay, flightql).
package flighttest

import (
	"math/rand"

	"flextm/internal/flight"
	"flextm/internal/memory"
	"flextm/internal/sim"
)

// Stream returns n records over cores cores, in Seq order as a flight
// Snapshot gives them, the same for the same seed. Every kind occurs, each
// with and without the FP bit, a CSTSet's low Aux bits name every
// cst.Kind and one value beyond them, peers run from -1, lines come from a
// small hot set or are 0, about half the records carry a duration, and
// cycles advance in steps that leave ties.
func Stream(seed int64, n, cores int) []flight.Rec {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]flight.Rec, n)
	var at sim.Time
	for i := range recs {
		at += sim.Time(rng.Intn(40))
		r := flight.Rec{
			At:   at,
			Seq:  uint64(i + 1),
			Core: int16(rng.Intn(cores)),
			Peer: int16(rng.Intn(cores+1) - 1),
			Kind: flight.Kind(rng.Intn(int(flight.NumKinds))),
			Aux:  uint8(rng.Intn(4)),
		}
		if r.Kind == flight.TxnBegin || r.Kind == flight.TxnCommit {
			r.Aux &= 1
		}
		if rng.Intn(4) == 0 {
			r.Aux |= flight.AuxFP
		}
		if rng.Intn(5) != 0 {
			r.Line = memory.LineAddr(0x40 * (1 + rng.Intn(24)))
		}
		if rng.Intn(2) == 0 {
			r.Dur = sim.Time(rng.Intn(1 << uint(rng.Intn(12))))
		}
		recs[i] = r
	}
	return recs
}
