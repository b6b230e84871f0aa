package replay

import (
	"math/rand"
	"reflect"
	"testing"

	"flextm/internal/flight"
	"flextm/internal/flight/flighttest"
	"flextm/internal/sim"
)

// TestAtMatchesParent holds At to refAt, the fold before it reused its
// scratch sets: over random streams, at cutoffs before, inside and after
// each stream, with per-core tables sized too small, exactly and too
// large, on in-order and shuffled input, and with records naming cores
// outside the tables, the states must be deeply equal.
func TestAtMatchesParent(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		cores := 1 + int(seed%9)
		if seed%10 == 0 {
			cores = 70 // more cores than one bitset word
		}
		recs := flighttest.Stream(seed, 50+int(seed)*40, cores)
		rng := rand.New(rand.NewSource(seed))
		if seed%4 == 0 {
			rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		}
		if seed%5 == 0 {
			recs[rng.Intn(len(recs))].Core = -1
		}
		end := recs[len(recs)-1].At
		for _, cycle := range []sim.Time{0, end / 3, end / 2, end, end + 1} {
			for _, n := range []int{0, cores / 2, cores, cores + 3} {
				got, want := At(recs, n, cycle), refAt(recs, n, cycle)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, cores %d, cycle %d:\n got %+v\nwant %+v", seed, n, cycle, got, want)
				}
			}
		}
	}
}

// BenchmarkReplayAt prices one fold of a 20k-record stream over 16 cores.
func BenchmarkReplayAt(b *testing.B) {
	recs := flighttest.Stream(1, 20000, 16)
	end := recs[len(recs)-1].At
	for _, bc := range []struct {
		name string
		at   func(recs []flight.Rec, cores int, cycle sim.Time) *State
	}{{"fold", At}, {"parent", refAt}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.at(recs, 16, end)
			}
		})
	}
}
