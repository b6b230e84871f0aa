package causal

import (
	"fmt"
	"io"
	"sort"

	"flextm/internal/flight"
	"flextm/internal/sim"
)

// Summary aggregates a run's transactional behavior: the lifecycle view of
// the attempt DAG that flextm -tracestats prints.
type Summary struct {
	Commits, Aborts int
	// Waits counts contention-manager stalls (cm-stall records);
	// EnemyKills every abort-enemy record, eager verdicts and lazy
	// commit-loop kills alike; SelfKills every abort-self record.
	Waits, EnemyKills, SelfKills int
	// AttemptCycles are the durations of every attempt (begin to
	// commit/abort), sorted ascending.
	AttemptCycles []sim.Time
	// RetriesPerCommit[n] counts transactions that needed n aborts before
	// committing.
	RetriesPerCommit map[int]int
	// Orphans counts commit/abort records that arrived with no open
	// transaction on their core (synthesized attempts). They indicate a
	// truncated or malformed stream and are excluded from the commit/abort
	// counts and latency statistics rather than silently folded in.
	Orphans map[flight.Kind]int
	// OpenAtEnd counts cores whose last transaction never resolved (the
	// stream ended between begin and commit/abort).
	OpenAtEnd int
	// Dropped counts records missing from the stream. Flight sequence
	// numbers are contiguous from 1, so every hole below the highest Seq
	// is a record the ring overwrote before the snapshot.
	Dropped uint64
}

// Summary folds the report's attempts, plus the conflict-handling records
// and Seq holes of recs (the window the report was analyzed from), into a
// Summary. A nil report (empty window) yields an empty summary.
func (r *Report) Summary(recs []flight.Rec) Summary {
	s := Summary{RetriesPerCommit: map[int]int{}}
	var maxSeq uint64
	for _, rec := range recs {
		maxSeq = max(maxSeq, rec.Seq)
		switch rec.Kind {
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
	if r == nil {
		return s
	}
	for _, atts := range r.PerCore {
		retries, last := 0, -1 // last: the core's last attempt with a begin
		for i := range atts {
			a := &atts[i]
			if a.Synthesized {
				// A commit or abort whose begin was lost: an orphan, and no
				// retry chain runs through it.
				if a.Outcome != Open {
					if s.Orphans == nil {
						s.Orphans = map[flight.Kind]int{}
					}
					k := flight.TxnAbort
					if a.Outcome == Committed {
						k = flight.TxnCommit
					}
					s.Orphans[k]++
				}
				retries = 0
				continue
			}
			last = i
			switch a.Outcome {
			case Committed:
				s.Commits++
				s.AttemptCycles = append(s.AttemptCycles, a.End-a.Start)
				s.RetriesPerCommit[retries]++
				retries = 0
			case Aborted:
				s.Aborts++
				s.AttemptCycles = append(s.AttemptCycles, a.End-a.Start)
				retries++
			}
		}
		// Mid-attempt, or aborted and awaiting a retry the stream never saw.
		if last >= 0 && atts[last].Outcome != Committed {
			s.OpenAtEnd++
		}
	}
	sort.Slice(s.AttemptCycles, func(i, j int) bool { return s.AttemptCycles[i] < s.AttemptCycles[j] })
	return s
}

// Percentile returns the p-th percentile attempt duration (p in [0,100]).
func (s Summary) Percentile(p float64) sim.Time {
	if len(s.AttemptCycles) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(s.AttemptCycles)-1))
	return s.AttemptCycles[idx]
}

// Print writes a human-readable summary.
func (s Summary) Print(w io.Writer) {
	fmt.Fprintf(w, "commits %d, aborts %d (%.2f/commit)\n",
		s.Commits, s.Aborts, float64(s.Aborts)/float64(max(s.Commits, 1)))
	if len(s.Orphans) > 0 {
		var kinds []flight.Kind
		for k := range s.Orphans {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		fmt.Fprintf(w, "WARNING: orphan events (no open transaction):")
		for _, k := range kinds {
			fmt.Fprintf(w, " %s=%d", k, s.Orphans[k])
		}
		fmt.Fprintln(w)
	}
	if s.OpenAtEnd > 0 {
		fmt.Fprintf(w, "WARNING: %d transactions still open at end of trace\n", s.OpenAtEnd)
	}
	if s.Dropped > 0 {
		fmt.Fprintf(w, "WARNING: %d flight records lost to ring wrap-around; stats are truncated\n", s.Dropped)
	}
	fmt.Fprintf(w, "conflict handling: %d waits, %d enemy aborts, %d self aborts\n",
		s.Waits, s.EnemyKills, s.SelfKills)
	if len(s.AttemptCycles) > 0 {
		fmt.Fprintf(w, "attempt cycles: p50=%d p90=%d p99=%d max=%d\n",
			s.Percentile(50), s.Percentile(90), s.Percentile(99),
			s.AttemptCycles[len(s.AttemptCycles)-1])
	}
	var retries []int
	for n := range s.RetriesPerCommit {
		retries = append(retries, n)
	}
	sort.Ints(retries)
	for _, n := range retries {
		fmt.Fprintf(w, "  %d retries: %d txns\n", n, s.RetriesPerCommit[n])
	}
}
