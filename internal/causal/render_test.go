package causal

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"flextm/internal/flight"
)

// killChain is the shared render fixture: core 1 kills core 0 once, core 0
// retries to the last commit.
func killChain() *Report {
	var s stream
	s.add(0, 0, flight.TxnBegin, -1, 0, 0, 0)
	s.add(10, 1, flight.TxnBegin, -1, 0, 0, 0)
	s.add(20, 1, flight.AbortEnemy, 0, flight.AuxFP, 0x40, 0)
	s.add(25, 0, flight.TxnAbort, -1, 0, 0, 0)
	s.add(40, 1, flight.TxnCommit, -1, 0, 0, 0)
	s.add(60, 0, flight.TxnBegin, -1, 0, 0, 0)
	s.add(100, 0, flight.TxnCommit, -1, 0, 0, 0)
	return Analyze(s.recs, Options{Cores: 2})
}

// TestWriteChromeCarriesStallDurations: Dur-bearing CMStall and Backoff
// flight records must fold into the rendered attempt spans — the stall
// cycles surface in the span's args and the timeline round-trips through
// EncodeChrome without losing the durations.
func TestWriteChromeCarriesStallDurations(t *testing.T) {
	var s stream
	s.add(0, 0, flight.TxnBegin, -1, 0, 0, 0)
	s.add(10, 1, flight.TxnBegin, -1, 0, 0, 0)
	s.add(15, 0, flight.CMStall, 1, 0, 0x40, 30)
	s.add(20, 1, flight.AbortEnemy, 0, 0, 0x40, 0)
	s.add(25, 0, flight.TxnAbort, -1, 0, 0, 0)
	s.add(30, 0, flight.Backoff, -1, 1, 0, 35)
	s.add(40, 1, flight.TxnCommit, -1, 0, 0, 0)
	s.add(70, 0, flight.TxnBegin, -1, 0, 0, 0)
	s.add(100, 0, flight.TxnCommit, -1, 0, 0, 0)
	rep := Analyze(s.recs, Options{Cores: 2})

	// The fold itself: the aborted attempt on core 0 carries both the stall
	// and the post-abort back-off (charged to the attempt it followed).
	if got := rep.PerCore[0][0].Stall; got != 30 {
		t.Fatalf("attempt stall = %d, want 30 (CMStall Dur)", got)
	}
	if got := rep.PerCore[0][0].Backoff; got != 35 {
		t.Fatalf("attempt backoff = %d, want 35 (Backoff Dur)", got)
	}

	var buf bytes.Buffer
	if err := rep.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	stallSeen := false
	for _, e := range doc.TraceEvents {
		if e.Phase == "X" && e.Cat == "attempt" && e.TID == 0 && e.TS == 0 {
			if v, ok := e.Args["stall"].(float64); !ok || v != 30 {
				t.Fatalf("aborted span args = %+v, want stall 30", e.Args)
			}
			if e.Dur != 25 {
				t.Fatalf("aborted span dur = %v, want 25 (begin..abort)", e.Dur)
			}
			stallSeen = true
		}
	}
	if !stallSeen {
		t.Fatal("no attempt span carried the CM stall duration")
	}
	// The document must round-trip through EncodeChrome byte-identically —
	// the same guarantee TestChromeDurationEventsRoundTrip pins for bare
	// duration events.
	var second bytes.Buffer
	if err := EncodeChrome(&second, doc.TraceEvents); err != nil {
		t.Fatal(err)
	}
	if buf.String() != second.String() {
		t.Fatal("causal chrome document not byte-stable through EncodeChrome")
	}
}

func TestWriteDOTMarksCriticalPath(t *testing.T) {
	var buf bytes.Buffer
	killChain().WriteDOT(&buf)
	dot := buf.String()
	for _, want := range []string{
		"digraph causal", "critical path", "color=red",
		"kill 0x40 (FP)", "style=dashed", "blame:",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestWriteChromeHasFlowAndPathTrack(t *testing.T) {
	var buf bytes.Buffer
	if err := killChain().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Cat   string  `json:"cat"`
			Phase string  `json:"ph"`
			PID   int     `json:"pid"`
			TID   int     `json:"tid"`
			ID    uint64  `json:"id"`
			BP    string  `json:"bp"`
			TS    float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var flowS, flowF, pathSegs int
	var sID, fID uint64
	for _, e := range doc.TraceEvents {
		switch {
		case e.Phase == "s" && e.Cat == "abort-lineage":
			flowS++
			sID = e.ID
			if e.TID != 1 || e.TS != 20 {
				t.Errorf("flow start = %+v, want killer tid 1 at ts 20", e)
			}
		case e.Phase == "f" && e.Cat == "abort-lineage":
			flowF++
			fID = e.ID
			if e.TID != 0 || e.TS != 25 || e.BP != "e" {
				t.Errorf("flow finish = %+v, want victim tid 0 at ts 25 with bp e", e)
			}
		case e.Phase == "X" && e.PID == 2:
			pathSegs++
		}
	}
	if flowS != 1 || flowF != 1 || sID != fID || sID == 0 {
		t.Fatalf("flow pair: %d starts, %d finishes, ids %d/%d", flowS, flowF, sID, fID)
	}
	if pathSegs == 0 {
		t.Fatal("no critical-path track segments (pid 2)")
	}
}
