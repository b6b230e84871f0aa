// Self-contained HTML run report: the shareable artifact of one observed
// run. Everything is inlined — styles, SVG time-series charts of the
// per-interval rates, an SVG conflict graph, the final telemetry tables,
// pathology verdicts, and (when available) the BENCH artifact comparison —
// so the file stands alone in a browser, a CI artifact store, or an email.
//
// Charts follow the repo's data-viz conventions: a validated placeholder
// palette declared once as CSS custom properties (with a selected dark
// mode, not an automatic flip), one series per chart (the title names it,
// so no legend box), thin 2px lines, recessive hairline grids, native
// <title> tooltips on enlarged hover targets, and a table view of every
// series for accessibility.

package observatory

import (
	"fmt"
	"html/template"
	"io"
	"math"
	"sort"
	"strings"

	"flextm/internal/benchfmt"
	"flextm/internal/causal"
	"flextm/internal/conflictgraph"
	"flextm/internal/flight"
	"flextm/internal/flightql"
	"flextm/internal/telemetry"
)

// ReportData is everything the HTML report embeds.
type ReportData struct {
	Title string
	Meta  Meta
	// Frames is the run's interval series, collected by a pump reader; the
	// last frame is treated as final state.
	Frames []*Frame
	// Bench, if non-nil, is the artifact recorded alongside the run.
	Bench *benchfmt.Artifact
	// Compare, if non-nil, is the comparison against a baseline artifact;
	// BaselineLabel names the baseline file.
	Compare       *benchfmt.CompareResult
	BaselineLabel string
	// FlightRecs, when non-empty, is the run's end-of-run flight stream;
	// the report appends a FlightQL drill-down appendix executed over it,
	// each canned query shown with its copy-pasteable source.
	FlightRecs []flight.Rec
	// Command reproduces the report.
	Command string
}

// Final returns the last frame (nil when the run produced none).
func (d ReportData) Final() *Frame {
	if len(d.Frames) == 0 {
		return nil
	}
	return d.Frames[len(d.Frames)-1]
}

// WriteHTMLReport renders the report.
func WriteHTMLReport(w io.Writer, d ReportData) error {
	if d.Title == "" {
		d.Title = "FlexTM run report"
	}
	v := reportView{Data: d}
	f := d.Final()
	if f != nil {
		v.Tiles = buildTiles(f)
		v.Charts = buildCharts(d.Frames)
		v.Graph = conflictGraphSVG(f.Report)
		v.Causal = buildCausal(f.Causal)
		v.Pathologies = buildPathologies(f.Report)
		v.Totals = buildTotals(f.Cum)
		v.Attribution = buildAttribution(f.Cum)
		v.Intervals = buildIntervalRows(d.Frames)
	}
	if d.Compare != nil {
		var notes map[string]string
		if d.Bench != nil {
			notes = d.Bench.Notes
		}
		v.Compare = buildCompare(*d.Compare, d.BaselineLabel, notes)
	}
	if len(d.FlightRecs) > 0 && f != nil {
		v.Queries = buildQueries(d.FlightRecs, d.Meta.Cores, uint64(f.End))
	}
	return reportTmpl.Execute(w, v)
}

// buildQueries executes the drill-down appendix: a canned FlightQL set that
// answers the questions a reader of the charts asks next — which lines the
// contention lives on, who killed whom, and what the reconstructed machine
// state looked like at the end of the run. Each entry carries its query
// source so the reader can re-run or refine it with `flextm -query`.
func buildQueries(recs []flight.Rec, cores int, end uint64) []queryRow {
	canned := []struct{ title, q string }{
		{"Event mix", "group by kind"},
		{"Conflict hot lines", "filter kind == cst-set | group by line agg count | top 5 by count"},
		{"Stall cost by line", "filter kind == cm-stall | group by line agg count, sum(dur), max(dur) | top 5 by sum(dur)"},
		{"Kills by killer core", "filter kind == abort-enemy | group by core agg count"},
		{"Reconstructed cores at end of run", fmt.Sprintf("at cycle %d show cores", end)},
		{"Multi-writer lines at end of run", fmt.Sprintf("at cycle %d show lines where writers > 1", end)},
	}
	env := flightql.Env{Cores: cores}
	out := make([]queryRow, 0, len(canned))
	for _, c := range canned {
		row := queryRow{Title: c.title, Query: c.q}
		q, err := flightql.Parse(c.q)
		if err != nil {
			row.Table = fmt.Sprintf("query error: %v", err)
			out = append(out, row)
			continue
		}
		res, err := q.RunEnv(recs, env)
		if err != nil {
			row.Table = fmt.Sprintf("query error: %v", err)
			out = append(out, row)
			continue
		}
		var b strings.Builder
		res.WriteTable(&b)
		row.Table = b.String()
		out = append(out, row)
	}
	return out
}

// --- view model ---

type reportView struct {
	Data        ReportData
	Tiles       []tile
	Charts      []chart
	Graph       template.HTML
	Causal      *causalView
	Pathologies []pathologyView
	Attribution *attributionView
	Totals      []totalRow
	Intervals   []intervalRow
	Compare     *compareView
	Queries     []queryRow
}

type tile struct {
	Label, Value, Detail string
}

type chart struct {
	Title string
	SVG   template.HTML
}

type pathologyView struct {
	Kind, Class, Detail string
	Count               uint64
}

type causalView struct {
	Summary string
	Wasted  string
	Blame   []blameRow
}

type blameRow struct {
	Line          string
	Cycles        uint64
	Share, FPShow string
}

type attributionView struct {
	SVG  template.HTML
	Rows []attrRow
}

type attrRow struct {
	Component, Class string
	Cycles           uint64
	Share            string
}

type totalRow struct {
	Name  string
	Value uint64
}

type intervalRow struct {
	Index                  int
	End                    string
	Commits, Aborts        uint64
	CommitRate, AbortRatio string
	SigFP                  string
	Pathologies            string
}

type compareView struct {
	Baseline    string
	Summary     string
	Regressions []string
	Gaps        []string
	// Notes are the recorded artifact's -bench-note key=value pairs, sorted
	// by key — the context (machine, branch, intent) a reader needs to judge
	// whether the comparison is apples-to-apples.
	Notes []noteRow
	Ok    bool
}

type noteRow struct {
	Key, Value string
}

type queryRow struct {
	Title, Query string
	Table        string
}

func buildTiles(f *Frame) []tile {
	commits := f.Cum.Total(telemetry.CtrTxnCommits)
	aborts := f.Cum.Total(telemetry.CtrTxnAborts)
	ratio := 0.0
	if commits+aborts > 0 {
		ratio = float64(aborts) / float64(commits+aborts)
	}
	obs, pred := f.Cum.SigFPRates()
	tiles := []tile{
		{"Commits", fmt.Sprintf("%d", commits), fmt.Sprintf("over %s", fmtCycles(uint64(f.End)))},
		{"Aborts", fmt.Sprintf("%d", aborts), fmt.Sprintf("%.1f%% of attempts", ratio*100)},
		{"Sig FP rate", fmt.Sprintf("%.4f", obs), fmt.Sprintf("analytic %.4f", pred)},
		{"CST scrubs", fmt.Sprintf("%d", f.Cum.Total(telemetry.CtrCSTClear)+f.Cum.Total(telemetry.CtrCSTCopyClear)),
			fmt.Sprintf("%d set", f.Cum.Total(telemetry.CtrCSTSet))},
		{"OT spills", fmt.Sprintf("%d", f.Cum.Total(telemetry.CtrOTSpill)),
			fmt.Sprintf("%d walks", f.Cum.Total(telemetry.CtrOTWalkHit)+f.Cum.Total(telemetry.CtrOTWalkFalse))},
		{"Escalations", fmt.Sprintf("%d", f.Cum.Total(telemetry.CtrEscalation)),
			fmt.Sprintf("%d watchdog trips", f.Cum.Total(telemetry.CtrWatchdogTrip))},
	}
	return tiles
}

func buildCharts(frames []*Frame) []chart {
	xs := make([]float64, 0, len(frames))
	commit := make([]float64, 0, len(frames))
	abortR := make([]float64, 0, len(frames))
	fp := make([]float64, 0, len(frames))
	for _, f := range frames {
		xs = append(xs, float64(f.End)/1e6)
		commit = append(commit, f.CommitRate())
		abortR = append(abortR, f.AbortRatio())
		fp = append(fp, f.SigFPRate())
	}
	return []chart{
		{"Commit rate (txn/Mcycle per interval)", lineChartSVG(xs, commit, "--series-1", "%.0f")},
		{"Abort ratio (aborts per attempt, per interval)", lineChartSVG(xs, abortR, "--series-2", "%.2f")},
		{"Signature false-positive rate (per interval)", lineChartSVG(xs, fp, "--series-3", "%.3f")},
	}
}

func buildCausal(rep *causal.Report) *causalView {
	if rep == nil || len(rep.Path) == 0 {
		return nil
	}
	v := &causalView{
		Summary: fmt.Sprintf("critical path %d cycles over %d segments — %.1f%% of the window's %d-cycle makespan, ending at the last commit (t=%d)",
			rep.PathCycles, len(rep.Path), rep.Coverage*100, rep.Makespan, uint64(rep.LastCommitAt)),
		Wasted: fmt.Sprintf("%d cycles were burned in %d aborted attempts", rep.WastedCycles, rep.Aborts),
	}
	for _, b := range rep.Blame {
		fp := "—"
		if b.Cycles > 0 && b.FPCycles > 0 {
			fp = fmt.Sprintf("%.0f%%", float64(b.FPCycles)/float64(b.Cycles)*100)
		}
		v.Blame = append(v.Blame, blameRow{
			Line:   fmt.Sprintf("0x%x", b.Line),
			Cycles: b.Cycles,
			Share:  fmt.Sprintf("%.1f%%", b.Share*100),
			FPShow: fp,
		})
	}
	return v
}

func buildPathologies(rep *conflictgraph.Report) []pathologyView {
	if rep == nil {
		return nil
	}
	var out []pathologyView
	for _, p := range rep.Pathologies {
		class := "status-warning"
		switch p.Kind {
		case conflictgraph.AbortCycle:
			class = "status-critical"
		case conflictgraph.StarvationChain:
			class = "status-serious"
		}
		out = append(out, pathologyView{
			Kind: string(p.Kind), Class: class, Detail: p.Detail, Count: p.Count,
		})
	}
	return out
}

func buildTotals(s telemetry.Snapshot) []totalRow {
	totals := s.Totals()
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]totalRow, 0, len(names))
	for _, n := range names {
		out = append(out, totalRow{Name: n, Value: totals[n]})
	}
	return out
}

func buildAttribution(s telemetry.Snapshot) *attributionView {
	a := s.Attribution()
	total := a.Total()
	if total == 0 {
		return nil
	}
	rows := []struct {
		name, slot string
		v          uint64
	}{
		{"useful work", "--series-1", a.Useful},
		{"stall-wait", "--series-2", a.Stall},
		{"aborted work", "--series-3", a.Aborted},
		{"commit overhead", "--series-4", a.CommitOv},
	}
	// One horizontal stacked bar, 2px surface gaps between segments.
	const width, height = 640.0, 36.0
	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %g %g" width="100%%" role="img" aria-label="cycle attribution">`, width, height)
	x := 0.0
	for _, r := range rows {
		wseg := float64(r.v) / float64(total) * width
		fmt.Fprintf(&b, `<rect x="%.1f" y="0" width="%.1f" height="%g" rx="4" fill="var(%s)"><title>%s: %d cycles (%.1f%%)</title></rect>`,
			x+1, math.Max(wseg-2, 0), height, r.slot, template.HTMLEscapeString(r.name), r.v, float64(r.v)/float64(total)*100)
		x += wseg
	}
	b.WriteString(`</svg>`)
	view := &attributionView{SVG: template.HTML(b.String())}
	for _, r := range rows {
		view.Rows = append(view.Rows, attrRow{
			Component: r.name, Class: r.slot, Cycles: r.v,
			Share: fmt.Sprintf("%.1f%%", float64(r.v)/float64(total)*100),
		})
	}
	return view
}

func buildIntervalRows(frames []*Frame) []intervalRow {
	out := make([]intervalRow, 0, len(frames))
	for _, f := range frames {
		var pk []string
		counts := f.Pathologies()
		for k := range counts {
			pk = append(pk, k)
		}
		sort.Strings(pk)
		out = append(out, intervalRow{
			Index:       f.Index,
			End:         fmtCycles(uint64(f.End)),
			Commits:     f.Delta.Total(telemetry.CtrTxnCommits),
			Aborts:      f.Delta.Total(telemetry.CtrTxnAborts),
			CommitRate:  fmt.Sprintf("%.1f", f.CommitRate()),
			AbortRatio:  fmt.Sprintf("%.3f", f.AbortRatio()),
			SigFP:       fmt.Sprintf("%.4f", f.SigFPRate()),
			Pathologies: strings.Join(pk, " "),
		})
	}
	return out
}

func buildCompare(res benchfmt.CompareResult, baseline string, notes map[string]string) *compareView {
	v := &compareView{Baseline: baseline, Ok: res.Ok()}
	v.Summary = fmt.Sprintf("compared %d cells, %d new, %d improved, %d regression(s)",
		res.Compared, len(res.NewCells), res.Improvements, len(res.Regressions))
	for _, r := range res.Regressions {
		v.Regressions = append(v.Regressions, r.String())
	}
	v.Gaps = append(v.Gaps, res.MetricGaps...)
	keys := make([]string, 0, len(notes))
	for k := range notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v.Notes = append(v.Notes, noteRow{Key: k, Value: notes[k]})
	}
	return v
}

// --- SVG generators ---

// lineChartSVG renders one series as an SVG line chart with hairline
// grids, four y ticks, and per-point hover targets carrying native
// tooltips. colorVar is the CSS custom property of the series color.
func lineChartSVG(xs, ys []float64, colorVar, yFmt string) template.HTML {
	if len(xs) < 2 {
		return template.HTML(`<p class="muted">not enough intervals to chart</p>`)
	}
	const (
		w, h        = 640.0, 200.0
		left, right = 52.0, 10.0
		top, bottom = 10.0, 24.0
	)
	pw, ph := w-left-right, h-top-bottom
	xmin, xmax := xs[0], xs[len(xs)-1]
	if xmax <= xmin {
		xmax = xmin + 1
	}
	ymin, ymax := 0.0, ys[0]
	for _, y := range ys {
		if y > ymax {
			ymax = y
		}
	}
	if ymax <= ymin {
		ymax = ymin + 1
	}
	ymax *= 1.05 // headroom so the peak is not clipped against the frame
	px := func(x float64) float64 { return left + (x-xmin)/(xmax-xmin)*pw }
	py := func(y float64) float64 { return top + ph - (y-ymin)/(ymax-ymin)*ph }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %g %g" width="100%%" role="img">`, w, h)
	// Grid and y ticks.
	for i := 0; i <= 4; i++ {
		yv := ymin + (ymax-ymin)*float64(i)/4
		yy := py(yv)
		fmt.Fprintf(&b, `<line x1="%g" y1="%.1f" x2="%g" y2="%.1f" stroke="var(--grid)" stroke-width="1"/>`, left, yy, w-right, yy)
		fmt.Fprintf(&b, `<text x="%g" y="%.1f" text-anchor="end" class="tick">`+yFmt+`</text>`, left-6, yy+4, yv)
	}
	// X axis labels: first, middle, last (in Mcycles).
	for _, xi := range []int{0, len(xs) / 2, len(xs) - 1} {
		fmt.Fprintf(&b, `<text x="%.1f" y="%g" text-anchor="middle" class="tick">%.2fMc</text>`, px(xs[xi]), h-6, xs[xi])
	}
	// Baseline.
	fmt.Fprintf(&b, `<line x1="%g" y1="%.1f" x2="%g" y2="%.1f" stroke="var(--axis)" stroke-width="1"/>`, left, top+ph, w-right, top+ph)
	// The series.
	var pts strings.Builder
	for i := range xs {
		fmt.Fprintf(&pts, "%.1f,%.1f ", px(xs[i]), py(ys[i]))
	}
	fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="var(%s)" stroke-width="2" stroke-linejoin="round"/>`,
		strings.TrimSpace(pts.String()), colorVar)
	// Hover targets: invisible enlarged circles with native tooltips.
	for i := range xs {
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="9" fill="transparent" class="hover-dot" data-color="%s"><title>t=%.2fMc  `+yFmt+`</title></circle>`,
			px(xs[i]), py(ys[i]), colorVar, xs[i], ys[i])
	}
	b.WriteString(`</svg>`)
	return template.HTML(b.String())
}

// conflictGraphSVG lays the report's cores on a circle: gray edges are CST
// conflicts (width by log count), red edges are kills. Cores in an abort
// cycle get a critical ring, starved cores a serious ring — always paired
// with the pathology list below, never color alone.
func conflictGraphSVG(rep *conflictgraph.Report) template.HTML {
	if rep == nil {
		return template.HTML(`<p class="muted">no flight recorder attached</p>`)
	}
	var active []conflictgraph.CoreStats
	for _, cs := range rep.PerCore {
		if cs.Commits+cs.Aborts+cs.Kills > 0 {
			active = append(active, cs)
		}
	}
	if len(active) == 0 {
		return template.HTML(`<p class="muted">no recorded transactional activity</p>`)
	}
	inCycle := map[int]bool{}
	starved := map[int]bool{}
	for _, p := range rep.Pathologies {
		switch p.Kind {
		case conflictgraph.AbortCycle:
			for _, c := range p.Cores {
				inCycle[c] = true
			}
		case conflictgraph.StarvationChain:
			if len(p.Cores) > 0 {
				starved[p.Cores[0]] = true
			}
		}
	}
	const w, h = 640.0, 360.0
	cx, cy, r := w/2, h/2, math.Min(w, h)/2-52
	pos := map[int][2]float64{}
	for i, cs := range active {
		a := 2*math.Pi*float64(i)/float64(len(active)) - math.Pi/2
		pos[cs.Core] = [2]float64{cx + r*math.Cos(a), cy + r*math.Sin(a)}
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg viewBox="0 0 %g %g" width="100%%" role="img" aria-label="conflict graph">`, w, h)
	maxConf := uint64(1)
	for _, e := range rep.Edges {
		if e.Total() > maxConf {
			maxConf = e.Total()
		}
	}
	for _, e := range rep.Edges {
		p1, ok1 := pos[e.From]
		p2, ok2 := pos[e.To]
		if !ok1 || !ok2 {
			continue
		}
		wd := 1 + 2*math.Log1p(float64(e.Total()))/math.Log1p(float64(maxConf))
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="var(--axis)" stroke-width="%.1f" opacity="0.7"><title>conflicts %d→%d: R-W %d, W-R %d, W-W %d</title></line>`,
			p1[0], p1[1], p2[0], p2[1], wd, e.From, e.To, e.RW, e.WR, e.WW)
	}
	for _, e := range rep.AbortEdges {
		p1, ok1 := pos[e.Killer]
		p2, ok2 := pos[e.Victim]
		if !ok1 || !ok2 {
			continue
		}
		// Offset kill edges slightly so reciprocal kills stay visible.
		dx, dy := p2[0]-p1[0], p2[1]-p1[1]
		l := math.Hypot(dx, dy)
		if l == 0 {
			l = 1
		}
		ox, oy := -dy/l*4, dx/l*4
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="var(--status-critical)" stroke-width="2" marker-end="url(#arr)"><title>kills %d→%d: %d</title></line>`,
			p1[0]+ox, p1[1]+oy, p2[0]+ox, p2[1]+oy, e.Killer, e.Victim, e.Kills)
	}
	b.WriteString(`<defs><marker id="arr" viewBox="0 0 8 8" refX="7" refY="4" markerWidth="6" markerHeight="6" orient="auto"><path d="M0,0 L8,4 L0,8 z" fill="var(--status-critical)"/></marker></defs>`)
	for _, cs := range active {
		p := pos[cs.Core]
		ring := "var(--axis)"
		switch {
		case inCycle[cs.Core]:
			ring = "var(--status-critical)"
		case starved[cs.Core]:
			ring = "var(--status-serious)"
		}
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="17" fill="var(--surface-1)" stroke="%s" stroke-width="2"><title>core %d: %d commits, %d aborts, %d kills</title></circle>`,
			p[0], p[1], ring, cs.Core, cs.Commits, cs.Aborts, cs.Kills)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" text-anchor="middle" class="node-label">c%d</text>`, p[0], p[1]+4, cs.Core)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" text-anchor="middle" class="tick">%dc/%da</text>`, p[0], p[1]+30, cs.Commits, cs.Aborts)
	}
	b.WriteString(`</svg>`)
	return template.HTML(b.String())
}

// --- template ---

var reportTmpl = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{{.Data.Title}}</title>
<style>
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a; --series-4: #eda100;
  --status-good: #0ca30c; --status-warning: #fab219; --status-serious: #ec835a; --status-critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70; --series-4: #c98500;
  }
}
body { margin: 0; font-family: system-ui, -apple-system, "Segoe UI", sans-serif; }
.viz-root { background: var(--page); color: var(--text-primary); padding: 24px; min-height: 100vh; }
.wrap { max-width: 960px; margin: 0 auto; }
h1 { font-size: 22px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; color: var(--text-primary); }
.sub, .muted { color: var(--text-secondary); font-size: 13px; }
.card { background: var(--surface-1); border: 1px solid var(--border); border-radius: 8px; padding: 14px 16px; margin-top: 8px; }
.tiles { display: grid; grid-template-columns: repeat(auto-fit, minmax(140px, 1fr)); gap: 8px; margin-top: 12px; }
.tile { background: var(--surface-1); border: 1px solid var(--border); border-radius: 8px; padding: 10px 12px; }
.tile .label { font-size: 12px; color: var(--text-secondary); }
.tile .value { font-size: 22px; margin: 2px 0; }
.tile .detail { font-size: 11px; color: var(--muted); }
table { border-collapse: collapse; font-size: 13px; width: 100%; }
th { text-align: left; color: var(--text-secondary); font-weight: 500; border-bottom: 1px solid var(--axis); padding: 4px 10px 4px 0; }
td { border-bottom: 1px solid var(--grid); padding: 4px 10px 4px 0; font-variant-numeric: tabular-nums; }
.tick { font-size: 10px; fill: var(--muted); }
.node-label { font-size: 11px; fill: var(--text-primary); }
.dot { display: inline-block; width: 10px; height: 10px; border-radius: 3px; margin-right: 6px; vertical-align: baseline; }
.status { display: inline-block; padding: 1px 8px; border-radius: 10px; font-size: 12px; color: #fff; margin-right: 8px; }
.status-critical { background: var(--status-critical); }
.status-serious { background: var(--status-serious); }
.status-warning { background: var(--status-warning); color: #0b0b0b; }
.status-good { background: var(--status-good); }
ul.pathologies { list-style: none; padding: 0; margin: 0; }
ul.pathologies li { margin: 6px 0; font-size: 13px; }
details { margin-top: 8px; }
summary { cursor: pointer; font-size: 13px; color: var(--text-secondary); }
code { font-size: 12px; background: var(--surface-1); border: 1px solid var(--border); border-radius: 4px; padding: 1px 5px; }
.hover-dot:hover { fill: var(--text-primary); fill-opacity: 0.25; }
pre.query-out { font-size: 12px; overflow-x: auto; background: var(--page); border: 1px solid var(--border); border-radius: 6px; padding: 8px 10px; }
</style>
</head>
<body>
<div class="viz-root"><div class="wrap">
<h1>{{.Data.Title}}</h1>
<p class="sub">{{.Data.Meta.System}} / {{.Data.Meta.Workload}} — {{.Data.Meta.Threads}} threads on {{.Data.Meta.Cores}} cores{{with .Data.Command}} · <code>{{.}}</code>{{end}}</p>

{{if not .Data.Frames}}<p class="muted">The run produced no observation frames.</p>{{else}}
<div class="tiles">{{range .Tiles}}<div class="tile"><div class="label">{{.Label}}</div><div class="value">{{.Value}}</div><div class="detail">{{.Detail}}</div></div>{{end}}</div>

{{range .Charts}}
<h2>{{.Title}}</h2>
<div class="card">{{.SVG}}</div>
{{end}}

{{with .Attribution}}
<h2>Cycle attribution</h2>
<div class="card">{{.SVG}}
<table><tr><th></th><th>component</th><th>cycles</th><th>share</th></tr>
{{range .Rows}}<tr><td><span class="dot" style="background: var({{.Class}})"></span></td><td>{{.Component}}</td><td>{{.Cycles}}</td><td>{{.Share}}</td></tr>{{end}}
</table></div>
{{end}}

<h2>Conflict graph (final window)</h2>
<div class="card">{{.Graph}}</div>

{{with .Causal}}
<h2>Critical path (final window)</h2>
<div class="card">
<p class="sub">{{.Summary}}</p>
<p class="sub">{{.Wasted}}</p>
{{if .Blame}}<table><tr><th>blamed line</th><th>cycles</th><th>share of critical path</th><th>from false positives</th></tr>
{{range .Blame}}<tr><td><code>{{.Line}}</code></td><td>{{.Cycles}}</td><td>{{.Share}}</td><td>{{.FPShow}}</td></tr>{{end}}
</table>{{else}}<p class="muted">no attributable contention cost on the path</p>{{end}}
</div>
{{end}}

<h2>Pathology verdicts</h2>
<div class="card">
{{if .Pathologies}}<ul class="pathologies">{{range .Pathologies}}<li><span class="status {{.Class}}">{{.Kind}}</span>{{.Detail}}</li>{{end}}</ul>
{{else}}<p class="muted"><span class="status status-good">clean</span>no contention pathologies detected in the final window</p>{{end}}
</div>

{{with .Compare}}
<h2>BENCH comparison vs {{.Baseline}}</h2>
<div class="card">
<p class="sub">{{if .Ok}}<span class="status status-good">ok</span>{{else}}<span class="status status-critical">regressions</span>{{end}}{{.Summary}}</p>
{{if .Notes}}<table><tr><th>note</th><th>value</th></tr>{{range .Notes}}<tr><td>{{.Key}}</td><td>{{.Value}}</td></tr>{{end}}</table>{{end}}
{{if .Regressions}}<table><tr><th>regression</th></tr>{{range .Regressions}}<tr><td>{{.}}</td></tr>{{end}}</table>{{end}}
{{if .Gaps}}<p class="sub">metric gaps (present in only one artifact):</p><table>{{range .Gaps}}<tr><td>{{.}}</td></tr>{{end}}</table>{{end}}
</div>
{{end}}

{{if .Queries}}
<h2>FlightQL drill-down</h2>
<div class="card">
<p class="sub">Canned queries over the run's flight stream. Re-run or refine any of them with <code>flextm -query 'EXPR'</code> on the same seed — the simulator is deterministic, so the answers reproduce.</p>
{{range .Queries}}
<details><summary>{{.Title}} — <code>{{.Query}}</code></summary>
<pre class="query-out">{{.Table}}</pre>
</details>
{{end}}
</div>
{{end}}

<h2>Data</h2>
<div class="card">
<details open><summary>Per-interval series ({{len .Intervals}} intervals)</summary>
<table><tr><th>#</th><th>t</th><th>commits</th><th>aborts</th><th>rate/Mc</th><th>abort ratio</th><th>sig FP</th><th>pathologies</th></tr>
{{range .Intervals}}<tr><td>{{.Index}}</td><td>{{.End}}</td><td>{{.Commits}}</td><td>{{.Aborts}}</td><td>{{.CommitRate}}</td><td>{{.AbortRatio}}</td><td>{{.SigFP}}</td><td>{{.Pathologies}}</td></tr>{{end}}
</table></details>
<details><summary>Final telemetry totals ({{len .Totals}} counters)</summary>
<table><tr><th>counter</th><th>total</th></tr>
{{range .Totals}}<tr><td>{{.Name}}</td><td>{{.Value}}</td></tr>{{end}}
</table></details>
</div>
{{end}}

<p class="muted" style="margin-top: 24px">Generated by <code>paperbench -report</code> — FlexTM observatory. The simulator is deterministic: the same command regenerates this exact report.</p>
</div></div>
</body>
</html>
`))
