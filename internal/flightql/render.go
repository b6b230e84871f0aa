package flightql

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"flextm/internal/replay"
)

// Result is a query's output: exactly one of the payload fields is set,
// named by Kind. The encoding is canonical for a given input: struct fields
// in declaration order, slices in their deterministic sort order, no maps —
// so the same query over the same records produces byte-identical JSON
// (the property cmd/flextm's TestFlightQLGoldenOverLivelockProbe byte-diffs).
type Result struct {
	Kind    string             `json:"kind"` // records, groups, count, state, lines, cores, assert
	Records []RecView          `json:"records,omitempty"`
	Groups  []Group            `json:"groups,omitempty"`
	Count   *uint64            `json:"count,omitempty"`
	State   *replay.State      `json:"state,omitempty"`
	Lines   []replay.LineState `json:"lines,omitempty"`
	Cores   []replay.CoreState `json:"cores,omitempty"`
	Assert  *AssertResult      `json:"assert,omitempty"`
}

// RecView is one flight record rendered for output: kind by name, the FP
// bit split from the masked Aux operand, lines in hex.
type RecView struct {
	Seq  uint64 `json:"seq"`
	At   uint64 `json:"at"`
	Dur  uint64 `json:"dur,omitempty"`
	Core int    `json:"core"`
	Peer int    `json:"peer"`
	Kind string `json:"kind"`
	Aux  uint8  `json:"aux"`
	FP   bool   `json:"fp,omitempty"`
	Line string `json:"line,omitempty"`
}

// Group is one aggregation bucket. Count is always computed; the other
// aggregates appear only when the query asked for them.
type Group struct {
	Key     []KeyPart    `json:"key"`
	Count   uint64       `json:"count"`
	SumDur  *uint64      `json:"sumDur,omitempty"`
	MeanDur *float64     `json:"meanDur,omitempty"`
	MaxDur  *uint64      `json:"maxDur,omitempty"`
	HistDur []HistBucket `json:"histDur,omitempty"`
}

// KeyPart is one field of a group key, with its display rendering.
type KeyPart struct {
	Field string `json:"field"`
	Value string `json:"value"`
}

// HistBucket is one power-of-two histogram bucket: N durations were <= Le
// (and above the previous bucket's bound). Only non-empty buckets appear.
type HistBucket struct {
	Le uint64 `json:"le"`
	N  uint64 `json:"n"`
}

// AssertResult is an expect stage's verdict.
type AssertResult struct {
	Expr string  `json:"expr"`
	Got  float64 `json:"got"`
	Pass bool    `json:"pass"`
}

// WriteJSON writes the result as canonical indented JSON, newline
// terminated. Byte-stable for a given query + record stream.
func (r *Result) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// QueryResult pairs a query's source with its result, for multi-query
// canonical documents (flextm -query-out, the CI golden file).
type QueryResult struct {
	Query  string  `json:"query"`
	Result *Result `json:"result"`
}

// WriteResultsJSON writes a set of query results as one canonical indented
// JSON document, newline terminated. Byte-stable for a given query set +
// record stream.
func WriteResultsJSON(w io.Writer, rs []QueryResult) error {
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteTable writes the result as an aligned human-readable table.
func (r *Result) WriteTable(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	defer tw.Flush()
	switch r.Kind {
	case "count":
		fmt.Fprintf(tw, "count\t%d\n", *r.Count)
	case "assert":
		verdict := "FAIL"
		if r.Assert.Pass {
			verdict = "PASS"
		}
		fmt.Fprintf(tw, "%s\texpect %s\tgot %g\n", verdict, r.Assert.Expr, r.Assert.Got)
	case "records":
		fmt.Fprintln(tw, "seq\tat\tdur\tcore\tpeer\tkind\taux\tfp\tline")
		for _, rec := range r.Records {
			fp := ""
			if rec.FP {
				fp = "fp"
			}
			fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%s\t%d\t%s\t%s\n",
				rec.Seq, rec.At, rec.Dur, rec.Core, rec.Peer, rec.Kind, rec.Aux, fp, rec.Line)
		}
	case "groups":
		if len(r.Groups) == 0 {
			fmt.Fprintln(tw, "no groups")
			return
		}
		var hdr []string
		for _, kp := range r.Groups[0].Key {
			hdr = append(hdr, kp.Field)
		}
		hdr = append(hdr, "count")
		g0 := r.Groups[0]
		if g0.SumDur != nil {
			hdr = append(hdr, "sum(dur)")
		}
		if g0.MeanDur != nil {
			hdr = append(hdr, "mean(dur)")
		}
		if g0.MaxDur != nil {
			hdr = append(hdr, "max(dur)")
		}
		if g0.HistDur != nil {
			hdr = append(hdr, "hist(dur)")
		}
		fmt.Fprintln(tw, strings.Join(hdr, "\t"))
		for _, g := range r.Groups {
			var row []string
			for _, kp := range g.Key {
				row = append(row, kp.Value)
			}
			row = append(row, fmt.Sprintf("%d", g.Count))
			if g.SumDur != nil {
				row = append(row, fmt.Sprintf("%d", *g.SumDur))
			}
			if g.MeanDur != nil {
				row = append(row, fmt.Sprintf("%.1f", *g.MeanDur))
			}
			if g.MaxDur != nil {
				row = append(row, fmt.Sprintf("%d", *g.MaxDur))
			}
			if g.HistDur != nil {
				var hb []string
				for _, b := range g.HistDur {
					hb = append(hb, fmt.Sprintf("<=%d:%d", b.Le, b.N))
				}
				row = append(row, strings.Join(hb, " "))
			}
			fmt.Fprintln(tw, strings.Join(row, "\t"))
		}
	case "state":
		st := r.State
		fmt.Fprintf(tw, "state at cycle %d\t(%d records folded, gov level %d)\n",
			st.Cycle, st.Records, st.GovLevel)
		writeCores(tw, st.Cores)
		writeLines(tw, st.Lines)
	case "cores":
		writeCores(tw, r.Cores)
	case "lines":
		writeLines(tw, r.Lines)
	}
}

func writeCores(w io.Writer, cores []replay.CoreState) {
	fmt.Fprintln(w, "core\tstatus\tattempt\tconsec-aborts\tsig-lines\tcommits\taborts\tescalations\ttrips")
	for _, c := range cores {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			c.Core, c.Status, c.Attempt, c.ConsecAborts, c.SigLines,
			c.Commits, c.Aborts, c.Escalations, c.Trips)
	}
}

func writeLines(w io.Writer, lines []replay.LineState) {
	if len(lines) == 0 {
		fmt.Fprintln(w, "no lines")
		return
	}
	fmt.Fprintln(w, "line\tlast-writer\twriters\treaders\tconflicts")
	for _, l := range lines {
		fmt.Fprintf(w, "0x%x\t%d\t%s\t%s\t%d\n",
			l.Line, l.LastWriter, intList(l.Writers), intList(l.Readers), l.Conflicts)
	}
}

func intList(xs []int) string {
	if len(xs) == 0 {
		return "-"
	}
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", x)
	}
	return b.String()
}
