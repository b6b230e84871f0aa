package harness

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"flextm/internal/causal"
	"flextm/internal/flight"
	"flextm/internal/sim"
	"flextm/internal/tmesi"
	"flextm/internal/workloads"
)

// tracedRun runs one FlexTM cell with its flight rings depth records deep
// per core (0: TraceRingDepth, the depth flextm -tracestats uses) and
// returns the record window.
func tracedRun(t *testing.T, name string, sys SystemName, threads, depth int) []flight.Rec {
	t.Helper()
	f, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("workload %s missing", name)
	}
	rc := RunConfig{
		System: sys, Workload: f, Threads: threads,
		Machine: tmesi.DefaultConfig(), Flight: true, FlightPerCore: depth,
	}
	if depth == 0 {
		rc.FlightPerCore = rc.TraceRingDepth()
	}
	res, err := Run(rc)
	if err != nil {
		t.Fatalf("%s %s@%d: %v", name, sys, threads, err)
	}
	return res.Flight.Snapshot()
}

// TestTraceStatsMatchesGolden pins flextm -tracestats output byte for byte:
// the README example (RandomGraph, FlexTM(Lazy), 16 threads) with rings
// deep enough that nothing wraps, and the same run with 64-deep rings, whose
// summary carries the orphan and lost-records warnings.
func TestTraceStatsMatchesGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, depth := range []int{RunConfig{}.TraceRingDepth(), 64} {
		recs := tracedRun(t, "RandomGraph", FlexTMLazy, 16, depth)
		fmt.Fprintf(&buf, "== RandomGraph FlexTM(Lazy), 16 threads, %d-deep rings ==\n", depth)
		causal.Analyze(recs, causal.Options{}).Summary(recs).Print(&buf)
	}
	want, err := os.ReadFile("testdata/tracestats.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("-tracestats output drifted from testdata/tracestats.txt:\n--- got\n%s--- want\n%s", buf.Bytes(), want)
	}
}

// TestTraceSummaryMatchesParentFold: the lifecycle summary derived from
// causal's attempt DAG equals the standalone fold it replaced
// (referenceSummarize, kept verbatim below) on live streams — every
// workload in both FlexTM modes at 1, 4 and 16 threads, the livelock duel,
// and runs whose rings wrapped — and on hand-built truncated streams.
func TestTraceSummaryMatchesParentFold(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine differential; nothing for the race detector")
	}
	check := func(name string, recs []flight.Rec) {
		t.Helper()
		got := causal.Analyze(recs, causal.Options{}).Summary(recs)
		if want := referenceSummarize(recs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: summary %+v, reference fold %+v", name, got, want)
		}
	}
	threads := []int{1, 4, 16}
	if testing.Short() {
		threads = []int{16}
	}
	for _, f := range workloads.All() {
		for _, sys := range []SystemName{FlexTMEager, FlexTMLazy} {
			for _, th := range threads {
				recs := tracedRun(t, f.Name, sys, th, 0)
				if len(recs) == 0 || recs[len(recs)-1].Seq != uint64(len(recs)) {
					t.Fatalf("%s %s@%d: stream empty or wrapped", f.Name, sys, th)
				}
				check(fmt.Sprintf("%s %s@%d", f.Name, sys, th), recs)
			}
		}
	}
	for seed := uint64(1); seed <= 3; seed++ {
		_, out, err := LivelockProbe(seed)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("livelock seed %d", seed), out.Recs)
	}
	for _, name := range []string{"RBTree", "RandomGraph"} {
		for _, sys := range []SystemName{FlexTMEager, FlexTMLazy} {
			for _, depth := range []int{64, 512} {
				recs := tracedRun(t, name, sys, 16, depth)
				if referenceSummarize(recs).Dropped == 0 {
					t.Fatalf("%s %s@16 with %d-deep rings did not wrap", name, sys, depth)
				}
				check(fmt.Sprintf("%s %s@16 %d-deep", name, sys, depth), recs)
			}
		}
	}

	rec := func(seq uint64, at sim.Time, core int, k flight.Kind) flight.Rec {
		return flight.Rec{At: at, Seq: seq, Core: int16(core), Peer: -1, Kind: k}
	}
	check("orphan commit and abort", []flight.Rec{
		rec(1, 10, 1, flight.TxnCommit),
		rec(2, 12, 2, flight.TxnAbort),
		rec(3, 20, 0, flight.TxnBegin),
		rec(4, 30, 0, flight.TxnCommit),
	})
	check("open at end", []flight.Rec{
		rec(1, 0, 0, flight.TxnBegin),
		rec(2, 5, 1, flight.TxnBegin),
		rec(3, 9, 1, flight.TxnAbort),
		rec(4, 50, 2, flight.TxnBegin),
		rec(5, 60, 2, flight.TxnCommit),
	})
	check("seq holes", []flight.Rec{
		rec(8, 8, 0, flight.TxnAbort),
		rec(9, 9, 0, flight.TxnBegin),
		rec(12, 12, 0, flight.TxnCommit),
	})
	check("begin after begin", []flight.Rec{
		rec(1, 0, 0, flight.TxnBegin),
		rec(2, 10, 0, flight.TxnAbort),
		rec(3, 20, 0, flight.TxnBegin),
		rec(4, 30, 0, flight.TxnBegin),
		rec(5, 70, 0, flight.TxnCommit),
	})
}

// referenceSummarize is the standalone lifecycle fold that served
// -tracestats before the summary became a view of the causal attempt DAG,
// kept verbatim as the differential reference.
func referenceSummarize(recs []flight.Rec) causal.Summary {
	s := causal.Summary{RetriesPerCommit: map[int]int{}}
	type open struct {
		start   sim.Time
		retries int
	}
	cur := map[int16]*open{}
	orphan := func(k flight.Kind) {
		if s.Orphans == nil {
			s.Orphans = map[flight.Kind]int{}
		}
		s.Orphans[k]++
	}
	var maxSeq uint64
	for _, r := range recs {
		maxSeq = max(maxSeq, r.Seq)
		switch r.Kind {
		case flight.TxnBegin:
			if o := cur[r.Core]; o != nil {
				o.start = r.At // retry of the same transaction
			} else {
				cur[r.Core] = &open{start: r.At}
			}
		case flight.TxnCommit:
			o := cur[r.Core]
			if o == nil {
				orphan(r.Kind)
				continue
			}
			s.Commits++
			s.AttemptCycles = append(s.AttemptCycles, r.At-o.start)
			s.RetriesPerCommit[o.retries]++
			delete(cur, r.Core)
		case flight.TxnAbort:
			o := cur[r.Core]
			if o == nil {
				orphan(r.Kind)
				continue
			}
			s.Aborts++
			s.AttemptCycles = append(s.AttemptCycles, r.At-o.start)
			o.retries++
		case flight.CMStall:
			s.Waits++
		case flight.AbortEnemy:
			s.EnemyKills++
		case flight.AbortSelf:
			s.SelfKills++
		}
	}
	if n := uint64(len(recs)); maxSeq > n {
		s.Dropped = maxSeq - n
	}
	// A committed transaction always deletes its entry, so whatever remains
	// is unfinished: mid-attempt, or aborted and awaiting a retry that the
	// stream never saw.
	s.OpenAtEnd = len(cur)
	sort.Slice(s.AttemptCycles, func(i, j int) bool { return s.AttemptCycles[i] < s.AttemptCycles[j] })
	return s
}
