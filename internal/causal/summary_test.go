package causal

import (
	"bytes"
	"strings"
	"testing"

	"flextm/internal/flight"
	"flextm/internal/sim"
)

// lifecycle adds a peerless begin/commit/abort record.
func (s *stream) lifecycle(at sim.Time, core int, k flight.Kind) {
	s.add(at, core, k, -1, 0, 0, 0)
}

// summarize is the -tracestats fold: the window's attempt DAG, viewed as a
// lifecycle summary.
func summarize(recs []flight.Rec) Summary {
	return Analyze(recs, Options{}).Summary(recs)
}

func TestSummarizeBasicLifecycle(t *testing.T) {
	var s stream
	// Core 0: begin -> abort -> begin(retry) -> commit.
	s.lifecycle(0, 0, flight.TxnBegin)
	s.lifecycle(100, 0, flight.TxnAbort)
	s.lifecycle(150, 0, flight.TxnBegin)
	s.lifecycle(400, 0, flight.TxnCommit)
	// Core 1: clean commit.
	s.lifecycle(10, 1, flight.TxnBegin)
	s.lifecycle(60, 1, flight.TxnCommit)

	sum := summarize(s.recs)
	if sum.Commits != 2 || sum.Aborts != 1 {
		t.Fatalf("commits=%d aborts=%d", sum.Commits, sum.Aborts)
	}
	if sum.RetriesPerCommit[1] != 1 || sum.RetriesPerCommit[0] != 1 {
		t.Fatalf("retries histogram = %v", sum.RetriesPerCommit)
	}
	if len(sum.AttemptCycles) != 3 {
		t.Fatalf("attempt samples = %d, want 3", len(sum.AttemptCycles))
	}
	if sum.AttemptCycles[0] != 50 || sum.AttemptCycles[2] != 250 {
		t.Fatalf("attempt cycles = %v", sum.AttemptCycles)
	}
}

// TestConflictCounters: every cm-stall is a wait, and every abort-enemy
// record counts — the eager verdict (line set) and the lazy commit-loop kill
// (line 0) alike. Non-lifecycle records fold into nothing.
func TestConflictCounters(t *testing.T) {
	var s stream
	s.add(1, 0, flight.CMStall, 2, 0, 0, 0)
	s.add(2, 0, flight.CMStall, 2, 0, 0, 0)
	s.add(3, 0, flight.AbortEnemy, 2, 0, 0, 0)
	s.add(4, 1, flight.AbortEnemy, 3, 0, 0, 0)
	s.add(5, 3, flight.AbortSelf, 1, 0, 0, 0)
	s.add(6, 1, flight.CSTSet, 2, 0, 0, 0)
	s.add(7, 1, flight.CSTClear, -1, 0, 0, 0)
	sum := summarize(s.recs)
	if sum.Waits != 2 || sum.EnemyKills != 2 || sum.SelfKills != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Commits != 0 || sum.Aborts != 0 || len(sum.Orphans) != 0 {
		t.Fatalf("conflict records leaked into lifecycle counts: %+v", sum)
	}
	var buf bytes.Buffer
	sum.Print(&buf)
	if !strings.Contains(buf.String(), "conflict handling: 2 waits, 2 enemy aborts, 1 self aborts") {
		t.Fatalf("conflict line:\n%s", buf.String())
	}
}

func TestPercentiles(t *testing.T) {
	s := Summary{AttemptCycles: []uint64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}}
	if p := s.Percentile(0); p != 10 {
		t.Fatalf("p0 = %d", p)
	}
	if p := s.Percentile(100); p != 100 {
		t.Fatalf("p100 = %d", p)
	}
	if p := s.Percentile(50); p < 40 || p > 60 {
		t.Fatalf("p50 = %d", p)
	}
	if (Summary{}).Percentile(50) != 0 {
		t.Fatal("empty summary percentile should be 0")
	}
}

// TestCapBoundsMemory: a traced run's memory is bounded by the flight ring,
// and the summary of a wrapped ring reports exactly the recorder's loss.
func TestCapBoundsMemory(t *testing.T) {
	r := flight.New(1, 5)
	for i := 0; i < 100; i++ {
		r.Rec(0, sim.Time(i), flight.TxnBegin, -1, 0, 0)
	}
	recs := r.Snapshot()
	if len(recs) != 5 {
		t.Fatalf("records kept = %d, want 5", len(recs))
	}
	if got := summarize(recs).Dropped; got != r.Overwritten() || got != 95 {
		t.Fatalf("summary dropped = %d, recorder overwrote %d, want 95", got, r.Overwritten())
	}
}

func TestPrintHumanReadable(t *testing.T) {
	var s stream
	s.lifecycle(0, 0, flight.TxnBegin)
	s.lifecycle(80, 0, flight.TxnCommit)
	var buf bytes.Buffer
	summarize(s.recs).Print(&buf)
	out := buf.String()
	for _, want := range []string{"commits 1", "attempt cycles"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "WARNING") {
		t.Fatalf("clean stream warns:\n%s", out)
	}
}

func TestOrphanEventsReported(t *testing.T) {
	var s stream
	// Commit and abort with no open transaction: a truncated stream.
	s.lifecycle(10, 0, flight.TxnCommit)
	s.lifecycle(20, 1, flight.TxnAbort)
	// A real transaction on core 2, untouched by the orphans.
	s.lifecycle(30, 2, flight.TxnBegin)
	s.lifecycle(90, 2, flight.TxnCommit)
	sum := summarize(s.recs)
	if sum.Commits != 1 || sum.Aborts != 0 {
		t.Fatalf("commits=%d aborts=%d, orphans must not count", sum.Commits, sum.Aborts)
	}
	if sum.Orphans[flight.TxnCommit] != 1 || sum.Orphans[flight.TxnAbort] != 1 {
		t.Fatalf("orphans = %v", sum.Orphans)
	}
	if len(sum.AttemptCycles) != 1 || sum.AttemptCycles[0] != 60 {
		t.Fatalf("attempt cycles = %v, orphan must not fold into latency", sum.AttemptCycles)
	}
	var buf bytes.Buffer
	sum.Print(&buf)
	if !strings.Contains(buf.String(), "orphan events (no open transaction): commit=1 abort=1") {
		t.Fatalf("orphans not reported:\n%s", buf.String())
	}
}

func TestOpenAtEndReported(t *testing.T) {
	var s stream
	s.lifecycle(0, 0, flight.TxnBegin)
	s.lifecycle(5, 1, flight.TxnBegin)
	s.lifecycle(50, 1, flight.TxnCommit)
	sum := summarize(s.recs)
	if sum.OpenAtEnd != 1 {
		t.Fatalf("openAtEnd = %d, want 1", sum.OpenAtEnd)
	}
	var buf bytes.Buffer
	sum.Print(&buf)
	if !strings.Contains(buf.String(), "still open") {
		t.Fatalf("open transactions not reported:\n%s", buf.String())
	}
}

// TestDroppedCounted: holes in the Seq numbering are records the ring
// overwrote, and the summary says its stats are truncated.
func TestDroppedCounted(t *testing.T) {
	var s stream
	for i := 0; i < 10; i++ {
		s.lifecycle(sim.Time(i), 0, flight.TxnBegin)
	}
	recs := s.recs[7:] // Seq 8..10 survive; 1..7 were overwritten
	sum := summarize(recs)
	if sum.Dropped != 7 {
		t.Fatalf("summary dropped = %d, want 7", sum.Dropped)
	}
	var buf bytes.Buffer
	sum.Print(&buf)
	if !strings.Contains(buf.String(), "WARNING: 7 flight records lost") {
		t.Fatalf("drops not reported:\n%s", buf.String())
	}
	if d := summarize(s.recs).Dropped; d != 0 {
		t.Fatalf("lossless stream dropped = %d, want 0", d)
	}
}

// truncatedStream is a stream whose prefix was lost: a commit and an abort
// arrive for cores that never (visibly) began, alongside one well-formed
// transaction and one attempt that never resolves.
func truncatedStream() []flight.Rec {
	var s stream
	s.lifecycle(10, 1, flight.TxnCommit) // orphan: begin was truncated away
	s.lifecycle(12, 2, flight.TxnAbort)  // orphan
	s.lifecycle(20, 0, flight.TxnBegin)
	s.lifecycle(24, 3, flight.TxnBegin) // never resolves
	s.add(25, 0, flight.AbortEnemy, 3, 0, 0, 0)
	s.lifecycle(30, 0, flight.TxnCommit)
	return s.recs
}

func TestSummarizeReportsOrphansOnTruncatedStream(t *testing.T) {
	s := summarize(truncatedStream())
	if s.Commits != 1 || s.Aborts != 0 {
		t.Fatalf("commits/aborts = %d/%d, want 1/0 (orphans must not count)", s.Commits, s.Aborts)
	}
	if got := s.Orphans[flight.TxnCommit]; got != 1 {
		t.Fatalf("orphan commits = %d, want 1", got)
	}
	if got := s.Orphans[flight.TxnAbort]; got != 1 {
		t.Fatalf("orphan aborts = %d, want 1", got)
	}
	if s.OpenAtEnd != 1 {
		t.Fatalf("OpenAtEnd = %d, want 1 (core 3's unresolved begin)", s.OpenAtEnd)
	}
	if len(s.AttemptCycles) != 1 || s.AttemptCycles[0] != 10 {
		t.Fatalf("AttemptCycles = %v, want [10]", s.AttemptCycles)
	}

	var buf bytes.Buffer
	s.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "orphan") {
		t.Fatalf("Print does not warn about orphans:\n%s", out)
	}
	if !strings.Contains(out, "open at end") {
		t.Fatalf("Print does not warn about unresolved transactions:\n%s", out)
	}
}

// TestWriteChromeTruncatedStreamShowsOrphans: the timeline of a truncated
// stream keeps its orphans visible. A commit or abort whose begin was lost
// is drawn as an attempt on its core from the window's head, and the
// attempt that never resolves is drawn to the window's end as "open".
func TestWriteChromeTruncatedStreamShowsOrphans(t *testing.T) {
	doc := exportChrome(t, truncatedStream())
	spans := map[int][]string{}
	for _, e := range doc.TraceEvents {
		if e.Phase == "X" && e.PID == 1 {
			spans[e.TID] = append(spans[e.TID], e.Name)
		}
	}
	for tid, want := range map[int]string{0: "commit", 1: "commit", 2: "abort"} {
		if len(spans[tid]) != 1 || spans[tid][0] != want {
			t.Errorf("core %d spans = %v, want [%s]", tid, spans[tid], want)
		}
	}
	var open bool
	for _, e := range doc.TraceEvents {
		if e.Phase == "X" && e.TID == 3 && e.Name == "open" && e.TS+e.Dur == 30 {
			open = true
		}
	}
	if !open {
		t.Fatalf("core 3's unresolved attempt not drawn to the window end: %+v", doc.TraceEvents)
	}
}
