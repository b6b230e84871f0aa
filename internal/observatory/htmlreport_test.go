package observatory

import (
	"regexp"
	"strings"
	"testing"

	"flextm/internal/benchfmt"
	"flextm/internal/flight"
	"flextm/internal/sim"
	"flextm/internal/telemetry"
)

// reportFixture builds a multi-frame ReportData by ticking a pump over a
// synthetic run, plus a bench artifact and self-comparison.
func reportFixture() ReportData {
	tel := telemetry.New(2)
	var frames []*Frame
	p := NewPump(Config{Interval: 1000, Readers: []func(*Frame){func(f *Frame) { frames = append(frames, f) }}})
	meta := Meta{System: "FlexTM(Lazy)", Workload: "RBTree", Threads: 2, Cores: 2}
	p.Bind(tel, nil, meta, nil)
	for i := 1; i <= 5; i++ {
		tel.Add(0, telemetry.CtrTxnCommits, uint64(10*i))
		tel.Add(0, telemetry.CtrTxnAborts, uint64(i))
		tel.Add(0, telemetry.CtrCycUseful, uint64(500*i))
		p.Tick(sim.Time(1000 * i))
	}
	p.Finish(5500)

	a := benchfmt.New("test", 100)
	a.Add(benchfmt.Cell{Figure: "fig4", System: "FlexTM(Lazy)", Workload: "RBTree",
		Threads: 2, Commits: 150, Throughput: 27.3})
	cmp := benchfmt.Compare(a, a, 0.1)
	return ReportData{
		Meta: meta, Frames: frames,
		Bench: a, Compare: &cmp, BaselineLabel: "BENCH_baseline.json",
		Command: "paperbench -report out.html",
	}
}

func TestHTMLReportRenders(t *testing.T) {
	var buf strings.Builder
	if err := WriteHTMLReport(&buf, reportFixture()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "FlexTM run report",
		"Commit rate", "Abort ratio", "Signature false-positive",
		"Cycle attribution", "Per-interval series", "BENCH comparison",
		"prefers-color-scheme", "<svg", "polyline",
		"paperbench -report out.html",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// One row per frame (5 ticks + final) in the interval table.
	if !strings.Contains(out, "Per-interval series (6 intervals)") {
		t.Error("interval table does not cover all 6 frames")
	}
}

// TestHTMLReportRendersBenchNotes: -bench-note key=value pairs recorded in
// the artifact must appear in the compare card, sorted by key — previously
// they were stored but never rendered.
func TestHTMLReportRendersBenchNotes(t *testing.T) {
	d := reportFixture()
	d.Bench.Notes = map[string]string{"machine": "ci-runner", "branch": "main"}
	var buf strings.Builder
	if err := WriteHTMLReport(&buf, d); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"machine", "ci-runner", "branch", "main"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare card missing note content %q", want)
		}
	}
	if strings.Index(out, "branch") > strings.Index(out, "machine") {
		t.Error("notes not sorted by key")
	}
}

// TestHTMLReportQueryDrilldown: a report fed flight records appends the
// FlightQL appendix, with each canned query's source and rendered table.
func TestHTMLReportQueryDrilldown(t *testing.T) {
	d := reportFixture()
	d.FlightRecs = []flight.Rec{
		{At: 10, Seq: 1, Core: 0, Peer: -1, Kind: flight.TxnBegin},
		{At: 20, Seq: 2, Core: 0, Peer: 1, Kind: flight.CMStall, Dur: 30, Line: 0x40},
		{At: 40, Seq: 3, Core: 0, Peer: -1, Kind: flight.TxnCommit},
	}
	var buf strings.Builder
	if err := WriteHTMLReport(&buf, d); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"FlightQL drill-down",
		"group by kind",
		"filter kind == cm-stall",
		"show cores",
		"flextm -query",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("drill-down missing %q", want)
		}
	}
	// Without records the section is absent.
	d.FlightRecs = nil
	buf.Reset()
	if err := WriteHTMLReport(&buf, d); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "FlightQL drill-down") {
		t.Error("drill-down rendered without flight records")
	}
}

func TestHTMLReportIsSelfContained(t *testing.T) {
	var buf strings.Builder
	if err := WriteHTMLReport(&buf, reportFixture()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The acceptance criterion: no external fetches of any kind — the file
	// must render from disk with networking off.
	for _, bad := range []*regexp.Regexp{
		regexp.MustCompile(`src\s*=\s*["']https?:`),
		regexp.MustCompile(`href\s*=\s*["']https?:`),
		regexp.MustCompile(`@import`),
		regexp.MustCompile(`url\(\s*["']?https?:`),
	} {
		if loc := bad.FindString(out); loc != "" {
			t.Errorf("external reference in report: %q", loc)
		}
	}
}

func TestHTMLReportEscapesMetadata(t *testing.T) {
	d := reportFixture()
	d.Title = `<script>alert("xss")</script>`
	d.Frames[len(d.Frames)-1].Meta.Workload = `<img onerror=x>`
	var buf strings.Builder
	if err := WriteHTMLReport(&buf, d); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, `<script>alert`) || strings.Contains(out, `<img onerror`) {
		t.Fatal("report does not escape run metadata")
	}
}

func TestHTMLReportEmptyRun(t *testing.T) {
	// No frames at all (run produced nothing): still a valid document, no
	// panic on nil Final.
	var buf strings.Builder
	if err := WriteHTMLReport(&buf, ReportData{Title: "empty"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Fatal("empty report lost its title")
	}
}
