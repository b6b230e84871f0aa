package flight

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"flextm/internal/memory"
	"flextm/internal/sim"
)

// refRecorder is the recorder as it was before rings grew on demand: every
// ring allocated at full capacity up front, with its capacity read from
// len(ring). Recorder must be indistinguishable from it.
type refRecorder struct {
	rings        [][]Rec
	written      []uint64
	lost         []uint64
	seq          uint64
	restoredLost uint64
}

func newRef(cores, perCore int) *refRecorder {
	r := &refRecorder{
		rings:   make([][]Rec, cores),
		written: make([]uint64, cores),
		lost:    make([]uint64, cores),
	}
	for i := range r.rings {
		r.rings[i] = make([]Rec, perCore)
	}
	return r
}

func (r *refRecorder) RecDur(core int, at sim.Time, k Kind, peer int, aux uint8, line memory.LineAddr, dur sim.Time) {
	ring := r.rings[core]
	n := r.written[core]
	r.written[core] = n + 1
	r.seq++
	slot := &ring[n%uint64(len(ring))]
	if n >= uint64(len(ring)) {
		r.lost[core] = slot.Seq
	}
	*slot = Rec{
		At: at, Dur: dur, Line: line, Seq: r.seq,
		Core: int16(core), Peer: int16(peer), Kind: k, Aux: aux,
	}
}

func (r *refRecorder) Written() uint64 {
	var t uint64
	for _, n := range r.written {
		t += n
	}
	return t
}

func (r *refRecorder) Overwritten() uint64 {
	t := r.restoredLost
	for i, n := range r.written {
		if size := uint64(len(r.rings[i])); n > size {
			t += n - size
		}
	}
	return t
}

func (r *refRecorder) live(i int) []Rec {
	return r.rings[i][:min(r.written[i], uint64(len(r.rings[i])))]
}

func (r *refRecorder) Snapshot() []Rec {
	var out []Rec
	for i := range r.rings {
		out = append(out, r.live(i)...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

func (r *refRecorder) SnapshotSince(seq uint64) (out []Rec, gap bool) {
	for i := range r.rings {
		if r.lost[i] > seq {
			gap = true
		}
		for _, rec := range r.live(i) {
			if rec.Seq > seq {
				out = append(out, rec)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out, gap
}

func refRestore(cores int, recs []Rec) *refRecorder {
	counts := make([]uint64, cores)
	var maxSeq, valid uint64
	for _, rec := range recs {
		if int(rec.Core) < 0 || int(rec.Core) >= cores {
			continue
		}
		counts[rec.Core]++
		valid++
		maxSeq = max(maxSeq, rec.Seq)
	}
	r := &refRecorder{
		rings:   make([][]Rec, cores),
		written: make([]uint64, cores),
		lost:    make([]uint64, cores),
		seq:     maxSeq,
	}
	if maxSeq > valid {
		r.restoredLost = maxSeq - valid
		lost := highestMissingSeq(recs, cores, maxSeq)
		for i := range r.lost {
			r.lost[i] = lost
		}
	}
	for i := range r.rings {
		r.rings[i] = make([]Rec, max(counts[i], 1))
	}
	for _, rec := range recs {
		if int(rec.Core) < 0 || int(rec.Core) >= cores {
			continue
		}
		ring := r.rings[rec.Core]
		ring[r.written[rec.Core]%uint64(len(ring))] = rec
		r.written[rec.Core]++
	}
	return r
}

func (r *refRecorder) Reset() {
	for i := range r.written {
		r.written[i] = 0
		r.lost[i] = 0
	}
	r.seq = 0
	r.restoredLost = 0
}

// recPair drives a Recorder and the reference with the same calls.
type recPair struct {
	r   *Recorder
	ref *refRecorder
}

func (p recPair) record(rng *rand.Rand, core int, at sim.Time) {
	k, peer := Kind(rng.Intn(int(NumKinds))), rng.Intn(4)-1
	aux, line := uint8(rng.Intn(256)), memory.LineAddr(rng.Intn(1<<20))
	if rng.Intn(2) == 0 {
		p.r.Rec(core, at, k, peer, aux, line)
		p.ref.RecDur(core, at, k, peer, aux, line, 0)
		return
	}
	dur := sim.Time(rng.Intn(100))
	p.r.RecDur(core, at, k, peer, aux, line, dur)
	p.ref.RecDur(core, at, k, peer, aux, line, dur)
}

// counts compares what the recorders report without copying records.
func (p recPair) counts() error {
	if got, want := p.r.Written(), p.ref.Written(); got != want {
		return fmt.Errorf("Written = %d, reference %d", got, want)
	}
	if got, want := p.r.Overwritten(), p.ref.Overwritten(); got != want {
		return fmt.Errorf("Overwritten = %d, reference %d", got, want)
	}
	return nil
}

// same compares the counts, Snapshot, and SnapshotSince at cursor.
func (p recPair) same(cursor uint64) error {
	if err := p.counts(); err != nil {
		return err
	}
	if got, want := p.r.Snapshot(), p.ref.Snapshot(); !slices.Equal(got, want) {
		return fmt.Errorf("Snapshot differs (%d vs %d records)", len(got), len(want))
	}
	got, gotGap := p.r.SnapshotSince(cursor)
	want, wantGap := p.ref.SnapshotSince(cursor)
	if !slices.Equal(got, want) || gotGap != wantGap {
		return fmt.Errorf("SnapshotSince(%d) = %d records gap %v, reference %d records gap %v",
			cursor, len(got), gotGap, len(want), wantGap)
	}
	return nil
}

// TestRecorderMatchesPreallocated drives Recorder and the preallocated
// reference with the same random sequences of Rec, RecDur and Reset, and
// compares Written and Overwritten after every step. Snapshot,
// SnapshotSince at a random cursor, and a Restore round trip (restored,
// then recorded past its rings) are compared after every step on the
// small rings, and on the DefaultPerCore rings at every step where the
// recorded core's ring grows, fills or wraps, and at random steps in
// between. No Reset comes before the recorder has taken three times its
// total capacity, and the test fails unless some ring recorded past
// three times its own.
func TestRecorderMatchesPreallocated(t *testing.T) {
	const cores = 2
	for _, perCore := range []int{1, 3, 16, DefaultPerCore} {
		t.Run(fmt.Sprint(perCore), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(perCore)))
			p := recPair{New(cores, perCore), newRef(cores, perCore)}
			capacity := cores * perCore
			steps := max(8*capacity, 2000)
			wrapped3x := false
			for step := 0; step < steps; step++ {
				core := rng.Intn(cores)
				full := perCore <= 16 || rng.Intn(1024) == 0
				if step > 3*capacity && rng.Intn(2*capacity) == 0 {
					p.r.Reset()
					p.ref.Reset()
					full = true
				} else {
					p.record(rng, core, sim.Time(step))
					n := p.ref.written[core]
					full = full || atBoundary(n, uint64(perCore))
					wrapped3x = wrapped3x || n > 3*uint64(perCore)
				}
				if err := p.counts(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if !full {
					continue
				}
				cursor := uint64(rng.Int63n(int64(p.ref.seq) + 2))
				if err := p.same(cursor); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				snap := p.ref.Snapshot()
				back := recPair{Restore(cores, snap), refRestore(cores, snap)}
				for i := rng.Intn(2 * perCore); i >= 0; i-- {
					back.record(rng, rng.Intn(cores), sim.Time(step))
				}
				if err := back.same(cursor); err != nil {
					t.Fatalf("step %d, restored: %v", step, err)
				}
			}
			if !wrapped3x {
				t.Fatal("no ring recorded past three times its capacity")
			}
		})
	}
}

// atBoundary reports whether a ring of capacity size that has just taken
// its n-th record is at a growth, fill or wrap step: n or a neighbour is
// a power of two, or n is within one of a multiple of size.
func atBoundary(n, size uint64) bool {
	for _, m := range []uint64{n - 1, n, n + 1} {
		if m != 0 && bits.OnesCount64(m) == 1 {
			return true
		}
	}
	r := n % size
	return r <= 1 || r == size-1
}

// TestNewReservesNoRings holds New to a few KiB at paperbench -report's
// ring depth: the rings' capacity bounds them without allocating them.
func TestNewReservesNoRings(t *testing.T) {
	res := testing.Benchmark(benchmarkNew)
	if b := res.AllocedBytesPerOp(); b > 4<<10 {
		t.Fatalf("New(16, 1<<17) allocates %d B, want at most 4 KiB", b)
	}
	if a := res.AllocsPerOp(); a > 2 {
		t.Fatalf("New(16, 1<<17) makes %d allocations, want at most 2", a)
	}
}

var sinkRecorder *Recorder

func benchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkRecorder = New(16, 1<<17)
	}
}

// BenchmarkNew prices a 16-core recorder with paperbench -report's
// 1<<17-deep rings.
func BenchmarkNew(b *testing.B) { benchmarkNew(b) }
