package causal

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"flextm/internal/flight"
)

// chromeDoc mirrors the trace_event JSON for decoding in tests.
type chromeDoc struct {
	TraceEvents []ChromeEvent `json:"traceEvents"`
}

// exportChrome renders a flight-record stream the way -trace-out does —
// the causal attempt timeline, encoded by EncodeChrome — and decodes it.
func exportChrome(t *testing.T, recs []flight.Rec) chromeDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := Analyze(recs, Options{}).WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace_event JSON: %v\n%s", err, buf.String())
	}
	return doc
}

// TestChromeInterleavedRetries runs a two-core interleaved retry scenario
// through the exporter: core 0 stalls behind core 1, aborts once, and
// retries to completion while core 1 commits mid-way through core 0's
// attempts. A third core contributes an orphan commit, which must surface
// as a span on its own row rather than vanish.
func TestChromeInterleavedRetries(t *testing.T) {
	var s stream
	s.lifecycle(0, 0, flight.TxnBegin)
	s.lifecycle(5, 1, flight.TxnBegin)
	s.add(10, 0, flight.CMStall, 1, 0, 0, 0)
	s.recs[len(s.recs)-1].Dur = 6
	s.lifecycle(30, 0, flight.TxnAbort)
	s.lifecycle(40, 1, flight.TxnCommit)
	s.lifecycle(50, 0, flight.TxnBegin)
	s.lifecycle(90, 0, flight.TxnCommit)
	s.lifecycle(95, 2, flight.TxnCommit) // orphan: no begin on core 2
	doc := exportChrome(t, s.recs)

	type span struct {
		tid      int
		ts, dur  float64
		expected string
	}
	wantSpans := []span{
		{0, 0, 30, "abort"},
		{0, 50, 40, "commit"},
		{1, 5, 35, "commit"},
		{2, 95, 0, "commit"},
	}
	for _, w := range wantSpans {
		found := false
		for _, e := range doc.TraceEvents {
			if e.Phase == "X" && e.TID == w.tid && e.TS == w.ts && e.Dur == w.dur && e.Name == w.expected {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing %q span tid=%d ts=%v dur=%v in %+v", w.expected, w.tid, w.ts, w.dur, doc.TraceEvents)
		}
	}

	var sawStall bool
	names := map[int]string{}
	for _, e := range doc.TraceEvents {
		switch {
		case e.Phase == "X" && e.Name == "abort" && e.TID == 0:
			sawStall = true
			if e.Args["stall"] != float64(6) {
				t.Errorf("aborted attempt stall = %v, want 6", e.Args["stall"])
			}
		case e.Phase == "M" && e.Name == "thread_name" && e.PID == 1:
			names[e.TID], _ = e.Args["name"].(string)
		}
	}
	if !sawStall {
		t.Error("aborted attempt span missing")
	}
	for _, tid := range []int{0, 1, 2} {
		if names[tid] == "" {
			t.Errorf("no thread_name metadata for core %d", tid)
		}
	}
}

func TestChromeUnfinishedAttemptVisible(t *testing.T) {
	var s stream
	s.lifecycle(0, 0, flight.TxnBegin)
	s.lifecycle(100, 1, flight.TxnBegin)
	s.lifecycle(200, 1, flight.TxnCommit)
	// Core 0 never resolves: the stream was truncated mid-attempt.
	doc := exportChrome(t, s.recs)
	for _, e := range doc.TraceEvents {
		if e.Phase == "X" && e.TID == 0 && e.Name == "open" && e.TS == 0 && e.Dur == 200 {
			return
		}
	}
	t.Fatalf("unfinished attempt not drawn: %+v", doc.TraceEvents)
}

// killStream: core 1 kills core 0's first attempt; core 0 retries, and its
// later kill of core 1 lands after core 1 committed (a failed CAS).
func killStream() []flight.Rec {
	var s stream
	s.lifecycle(0, 0, flight.TxnBegin)
	s.lifecycle(5, 1, flight.TxnBegin)
	s.add(20, 1, flight.AbortEnemy, 0, 0, 0, 0)
	s.lifecycle(25, 0, flight.TxnAbort)
	s.lifecycle(30, 0, flight.TxnBegin)
	s.lifecycle(40, 1, flight.TxnCommit)
	s.add(50, 0, flight.AbortEnemy, 1, 0, 0, 0) // victim already committed
	s.lifecycle(60, 0, flight.TxnCommit)
	return s.recs
}

// TestChromeKillFlowEvents: an abort-enemy decision must emit a flow pair —
// an "s" event on the killer's row at decision time and a bp="e" "f" event
// on the victim's row at its resulting abort, sharing one id — so the
// viewer draws the kill as an arrow. A kill whose victim never aborts (the
// CAS lost; the victim committed) must emit no dangling flow start.
func TestChromeKillFlowEvents(t *testing.T) {
	doc := exportChrome(t, killStream())
	var starts, finishes []ChromeEvent
	for _, e := range doc.TraceEvents {
		switch e.Phase {
		case "s":
			starts = append(starts, e)
		case "f":
			finishes = append(finishes, e)
		}
	}
	if len(starts) != 1 || len(finishes) != 1 {
		t.Fatalf("flow events = %d starts, %d finishes, want 1 each: %+v", len(starts), len(finishes), doc.TraceEvents)
	}
	s, f := starts[0], finishes[0]
	if s.Name != "kill" || s.Cat != "abort-lineage" || s.TID != 1 || s.TS != 20 {
		t.Errorf("flow start = %+v, want kill/abort-lineage on tid 1 at ts 20", s)
	}
	if f.TID != 0 || f.TS != 25 || f.BP != "e" {
		t.Errorf("flow finish = %+v, want tid 0, ts 25, bp \"e\"", f)
	}
	if s.ID == 0 || s.ID != f.ID {
		t.Errorf("flow ids %d / %d, want equal and non-zero", s.ID, f.ID)
	}
}

// TestChromeEventSchemaRoundTrip: the document must survive an
// encode -> decode -> encode cycle through the exported ChromeEvent type
// byte-identically, pinning the JSON schema the timeline renderer emits
// into.
func TestChromeEventSchemaRoundTrip(t *testing.T) {
	var first bytes.Buffer
	if err := Analyze(killStream(), Options{}).WriteChrome(&first); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(first.Bytes(), &doc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	var second bytes.Buffer
	if err := EncodeChrome(&second, doc.TraceEvents); err != nil {
		t.Fatalf("EncodeChrome: %v", err)
	}
	if first.String() != second.String() {
		t.Fatalf("round trip changed the document:\n--- first\n%s--- second\n%s", first.String(), second.String())
	}
}

// TestChromeDurationEventsRoundTrip: duration-bearing ("X" with dur) events
// — the shape internal/causal emits for CM stalls and retry back-off folded
// out of flight Rec.Dur — must survive encode -> decode -> encode with the
// dur field intact. Zero-dur events must stay dur-less (omitempty), so
// instants don't grow a spurious dur: 0 on re-encode.
func TestChromeDurationEventsRoundTrip(t *testing.T) {
	events := []ChromeEvent{
		{Name: "cm-stall", Cat: "cm", Phase: "X", TS: 24, Dur: 30, PID: 1, TID: 0},
		{Name: "backoff", Cat: "cm", Phase: "X", TS: 40, Dur: 35, PID: 1, TID: 1},
		{Name: "decision", Cat: "cm", Phase: "i", TS: 25, PID: 1, TID: 0, Scope: "t"},
	}
	var first bytes.Buffer
	if err := EncodeChrome(&first, events); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(first.Bytes(), &doc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	durs := map[string]float64{}
	for _, e := range doc.TraceEvents {
		durs[e.Name] = e.Dur
	}
	if durs["cm-stall"] != 30 || durs["backoff"] != 35 || durs["decision"] != 0 {
		t.Fatalf("durations lost in transit: %+v", durs)
	}
	if strings.Contains(first.String(), `"name":"decision","cat":"cm","ph":"i","ts":25,"dur"`) {
		t.Fatal("zero-dur instant grew a dur field")
	}
	var second bytes.Buffer
	if err := EncodeChrome(&second, doc.TraceEvents); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("duration events not byte-stable:\n--- first\n%s--- second\n%s", first.String(), second.String())
	}
}

func TestChromeEmpty(t *testing.T) {
	doc := exportChrome(t, nil)
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("empty stream produced events: %+v", doc.TraceEvents)
	}
}
