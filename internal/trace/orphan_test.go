package trace_test

import (
	"bytes"
	"strings"
	"testing"

	"flextm/internal/flight"
	"flextm/internal/trace"
)

// truncatedStream is a stream whose prefix was lost: a commit and an abort
// arrive for cores that never (visibly) began, alongside one well-formed
// transaction and one attempt that never resolves.
func truncatedStream() []flight.Rec {
	var s stream
	s.lifecycle(10, 1, flight.TxnCommit) // orphan: begin was truncated away
	s.lifecycle(12, 2, flight.TxnAbort)  // orphan
	s.lifecycle(20, 0, flight.TxnBegin)
	s.lifecycle(24, 3, flight.TxnBegin) // never resolves
	s.add(25, 0, flight.AbortEnemy, 3)
	s.lifecycle(30, 0, flight.TxnCommit)
	return s.recs
}

func TestSummarizeReportsOrphansOnTruncatedStream(t *testing.T) {
	s := trace.Summarize(truncatedStream())
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
