package flight

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"flextm/internal/memory"
	"flextm/internal/sim"
)

// sortedSnapshot is Snapshot by the sort alone: every live record in ring
// order, sorted by Seq.
func sortedSnapshot(r *Recorder) []Rec {
	var out []Rec
	for i := range r.rings {
		out = append(out, r.rings[i].live()...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// TestSnapshotPlacementMatchesSort holds Snapshot, which places the records
// of a recorder that lost nothing by Seq, to the sort-based result on
// lossless, wrapped and restored recorders, and checks which of them take
// the placement.
func TestSnapshotPlacementMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fill := func(r *Recorder, n int) *Recorder {
		for i := 0; i < n; i++ {
			r.RecDur(rng.Intn(len(r.rings)), sim.Time(i/3), Kind(rng.Intn(int(NumKinds))),
				rng.Intn(4)-1, uint8(rng.Intn(256)), memory.LineAddr(rng.Intn(64)), sim.Time(rng.Intn(5)))
		}
		return r
	}
	shuffled := func(recs []Rec) []Rec {
		out := append([]Rec(nil), recs...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	lossless := fill(New(4, 64), 150)
	wrapped := fill(New(4, 16), 150)
	dup := lossless.Snapshot()[:20]
	dup[7].Seq = dup[3].Seq // a repeated Seq: 20 records, highest Seq 20
	cases := []struct {
		name  string
		r     *Recorder
		place bool
	}{
		{"empty", New(3, 8), true},
		{"lossless", lossless, true},
		{"wrapped", wrapped, false},
		{"reset then refilled", fill(func() *Recorder { r := fill(New(2, 16), 40); r.Reset(); return r }(), 12), true},
		{"restored lossless", Restore(4, lossless.Snapshot()), true},
		{"restored lossless, shuffled", Restore(4, shuffled(lossless.Snapshot())), true},
		{"restored wrapped", Restore(4, wrapped.Snapshot()), false},
		{"restored wrapped, shuffled", Restore(4, shuffled(wrapped.Snapshot())), false},
		{"restored with a repeated Seq", Restore(4, dup), false},
		{"restored lossless, then recorded past its rings", fill(Restore(4, lossless.Snapshot()), 30), false},
	}
	for _, tc := range cases {
		got, want := tc.r.Snapshot(), sortedSnapshot(tc.r)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Snapshot differs from the sorted records (%d vs %d records)", tc.name, len(got), len(want))
		}
		live := len(want)
		if _, placed := tc.r.placeBySeq(live); placed != tc.place {
			t.Errorf("%s: placed by Seq = %v, want %v", tc.name, placed, tc.place)
		}
	}
}
