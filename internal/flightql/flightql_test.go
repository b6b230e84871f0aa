package flightql

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"flextm/internal/cst"
	"flextm/internal/flight"
	"flextm/internal/memory"
	"flextm/internal/sim"
)

type stream struct {
	recs []flight.Rec
}

func (s *stream) add(at sim.Time, core int, k flight.Kind, peer int, aux uint8, line memory.LineAddr, dur sim.Time) {
	s.recs = append(s.recs, flight.Rec{
		At: at, Dur: dur, Line: line, Seq: uint64(len(s.recs) + 1),
		Core: int16(core), Peer: int16(peer), Kind: k, Aux: aux,
	})
}

func duelStream() []flight.Rec {
	var s stream
	s.add(10, 0, flight.TxnBegin, -1, 0, 0, 0)
	s.add(12, 1, flight.TxnBegin, -1, 0, 0, 0)
	s.add(20, 0, flight.CSTSet, 1, uint8(cst.WW), 0x40, 0)
	s.add(22, 1, flight.CSTSet, 0, uint8(cst.RW)|flight.AuxFP, 0x80, 0)
	s.add(24, 0, flight.CMStall, 1, 0, 0x40, 30)
	s.add(25, 0, flight.AbortEnemy, 1, 0, 0x40, 0)
	s.add(30, 1, flight.TxnAbort, -1, 0, 0, 0)
	s.add(40, 1, flight.Backoff, -1, 1, 0, 35)
	s.add(50, 0, flight.TxnCommit, -1, 0, 0, 0)
	s.add(60, 1, flight.TxnBegin, -1, 0, 0, 0)
	s.add(70, 1, flight.CMStall, 0, 0, 0x40, 12)
	s.add(80, 1, flight.TxnCommit, -1, 0, 0, 0)
	return s.recs
}

func TestFilterByKindAndCore(t *testing.T) {
	res, err := Run("filter kind == cm-stall && core == 1", duelStream())
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "records" || len(res.Records) != 1 {
		t.Fatalf("got %+v", res)
	}
	r := res.Records[0]
	if r.Seq != 11 || r.Dur != 12 || r.Line != "0x40" {
		t.Fatalf("record = %+v", r)
	}
}

func TestFilterWindowAndFP(t *testing.T) {
	res, err := Run("filter at >= 20 && at <= 25 && fp == true", duelStream())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 || res.Records[0].Kind != "cst-set" || !res.Records[0].FP {
		t.Fatalf("got %+v", res.Records)
	}
}

func TestFilterInListAndNot(t *testing.T) {
	res, err := Run("filter kind in [begin, commit] && !(core == 0)", duelStream())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 3 {
		t.Fatalf("want 3 records (core 1 begins+commit), got %d", len(res.Records))
	}
}

func TestGroupByKind(t *testing.T) {
	res, err := Run("group by kind", duelStream())
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "groups" {
		t.Fatalf("kind = %s", res.Kind)
	}
	// Groups sort by the key's numeric value: kind enum order.
	want := map[string]uint64{"begin": 3, "commit": 2, "abort": 1, "abort-enemy": 1, "cst-set": 2, "cm-stall": 2, "backoff": 1}
	if len(res.Groups) != len(want) {
		t.Fatalf("groups = %+v", res.Groups)
	}
	for _, g := range res.Groups {
		if want[g.Key[0].Value] != g.Count {
			t.Fatalf("group %s count = %d, want %d", g.Key[0].Value, g.Count, want[g.Key[0].Value])
		}
	}
}

func TestGroupAggregatesAndTop(t *testing.T) {
	res, err := Run("filter kind == cm-stall | group by line agg count, sum(dur), mean(dur), max(dur) | top 1 by sum(dur)", duelStream())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 {
		t.Fatalf("groups = %+v", res.Groups)
	}
	g := res.Groups[0]
	if g.Key[0].Value != "0x40" || g.Count != 2 || *g.SumDur != 42 || *g.MaxDur != 30 || *g.MeanDur != 21 {
		t.Fatalf("group = %+v sum=%d", g, *g.SumDur)
	}
}

func TestTopRequiresComputedAggregate(t *testing.T) {
	if _, err := Run("group by kind | top 2 by sum(dur)", duelStream()); err == nil {
		t.Fatal("top by an aggregate the group stage did not compute should error")
	}
}

func TestHistogramBuckets(t *testing.T) {
	res, err := Run("filter kind == cm-stall | group by kind agg hist(dur)", duelStream())
	if err != nil {
		t.Fatal(err)
	}
	g := res.Groups[0]
	// Durations 30 and 12: buckets <=31 and <=15.
	if len(g.HistDur) != 2 || g.HistDur[0].Le != 15 || g.HistDur[1].Le != 31 {
		t.Fatalf("hist = %+v", g.HistDur)
	}
}

func TestCountAndExpect(t *testing.T) {
	res, err := Run("filter kind == abort | count", duelStream())
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "count" || *res.Count != 1 {
		t.Fatalf("got %+v", res)
	}
	res, err = Run("filter kind == commit | expect count == 2", duelStream())
	if err != nil {
		t.Fatal(err)
	}
	if res.Assert == nil || !res.Assert.Pass {
		t.Fatalf("expect failed: %+v", res.Assert)
	}
	res, err = Run("filter kind == cm-stall | expect sum(dur) == 41", duelStream())
	if err != nil {
		t.Fatal(err)
	}
	if res.Assert.Pass || res.Assert.Got != 42 {
		t.Fatalf("bad-sum expect: %+v", res.Assert)
	}
}

func TestAtCycleState(t *testing.T) {
	res, err := Run("at cycle 45 show state", duelStream())
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "state" || res.State == nil {
		t.Fatalf("got %+v", res)
	}
	if res.State.Cores[0].Status.String() != "running" || res.State.Cores[1].Status.String() != "aborted" {
		t.Fatalf("cores = %+v", res.State.Cores)
	}
}

func TestAtCycleLinesWhere(t *testing.T) {
	res, err := Run("at cycle 100 show lines where writers > 1", duelStream())
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "lines" || len(res.Lines) != 1 || res.Lines[0].Line != 0x40 {
		t.Fatalf("got %+v", res.Lines)
	}
	// Both lines exist without the predicate.
	res, err = Run("at cycle 100 show lines", duelStream())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lines) != 2 {
		t.Fatalf("got %+v", res.Lines)
	}
}

func TestAtCycleCoresWhereStatus(t *testing.T) {
	res, err := Run("at cycle 45 show cores where status == aborted", duelStream())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 1 || res.Cores[0].Core != 1 {
		t.Fatalf("got %+v", res.Cores)
	}
}

func TestFilteredReplayComposes(t *testing.T) {
	// Replay over a filtered stream: only core 1's records.
	res, err := Run("filter core == 1 | at cycle 100 show cores where commits > 0", duelStream())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 1 || res.Cores[0].Core != 1 || res.Cores[0].Commits != 1 {
		t.Fatalf("got %+v", res.Cores)
	}
}

func TestJSONByteStability(t *testing.T) {
	queries := []string{
		"group by core, kind agg count, sum(dur)",
		"at cycle 100 show state",
		"filter kind == cst-set | group by line | top 2 by count",
	}
	for _, q := range queries {
		var a, b bytes.Buffer
		r1, err := Run(q, duelStream())
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		r2, err := Run(q, duelStream())
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if err := r1.WriteJSON(&a); err != nil {
			t.Fatal(err)
		}
		if err := r2.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("query %q not byte-stable:\n%s\n---\n%s", q, a.String(), b.String())
		}
	}
}

func TestTableRendering(t *testing.T) {
	for _, q := range []string{
		"filter kind == cm-stall",
		"group by kind",
		"count",
		"at cycle 45 show state",
		"at cycle 45 show lines",
		"filter kind == commit | expect count == 2",
	} {
		res, err := Run(q, duelStream())
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var b bytes.Buffer
		res.WriteTable(&b)
		if b.Len() == 0 {
			t.Fatalf("%s: empty table", q)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, q := range []string{
		"",
		"filter bogus == 1",
		"filter kind == not-a-kind",
		"filter core = 1",
		"group by",
		"group by dur | top 0 by count",
		"top 3 by count",
		"expect hist(dur) == 1",
		"at cycle -5 show state",
		"at cycle 10 show state where core == 0",
		"filter kind == begin | filter-together",
		"filter fp == maybe",
	} {
		if _, err := Run(q, duelStream()); err == nil {
			t.Fatalf("query %q should not parse/run", q)
		}
	}
}

// TestInListLiteralsFailAtParse: a name its field does not know fails the
// parse inside an 'in' list exactly as it does after '==', whatever the
// rest of the expression or the list holds.
func TestInListLiteralsFailAtParse(t *testing.T) {
	for _, tc := range []struct{ q, err string }{
		{"filter core == 99 && kind in [bogus]", `flightql: unknown record kind "bogus"`},
		{"filter kind in [commit, bogus]", `flightql: unknown record kind "bogus"`},
		{"filter fp in [false, maybe]", `flightql: fp compares against true/false, not "maybe"`},
		{"at cycle 10 show cores where status in [idle, asleep]", `flightql: unknown status "asleep"`},
	} {
		_, err := Parse(tc.q)
		if err == nil || err.Error() != tc.err {
			t.Errorf("Parse(%q) = %v, want %s", tc.q, err, tc.err)
		}
	}
}

func TestAssertHelper(t *testing.T) {
	Assert(t, duelStream(), "filter kind == watchdog-trip | expect count == 0")
	Assert(t, duelStream(), "filter kind == commit | expect count == 2")

	ft := &fakeTB{}
	Assert(ft, duelStream(), "filter kind == commit | expect count == 99")
	if !ft.failed {
		t.Fatal("failing expectation did not fail the test")
	}
	ft = &fakeTB{}
	Assert(ft, duelStream(), "filter kind == commit")
	if !ft.failed || !strings.Contains(ft.msg, "no expect stage") {
		t.Fatalf("missing-expect query not rejected: %q", ft.msg)
	}
}

type fakeTB struct {
	failed bool
	msg    string
}

func (f *fakeTB) Helper() {}
func (f *fakeTB) Fatalf(format string, args ...any) {
	f.failed = true
	f.msg = fmt.Sprintf(format, args...)
}
