package causal

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// WriteJSON writes the report as indented JSON. The encoding is canonical
// for a given record window: struct fields in declaration order, slices in
// their deterministic sort order, no maps — so the same seed produces
// byte-identical output (the property CI byte-diffs).
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteDOT renders the attempt DAG's critical path as Graphviz: one node
// per on-path attempt segment, red critical-path edges (kill edges labeled
// with the blamed line, dashed when the conflict was a signature false
// positive), and a blame-table legend.
func (r *Report) WriteDOT(w io.Writer) {
	fmt.Fprintln(w, "digraph causal {")
	fmt.Fprintln(w, "  rankdir=LR;")
	fmt.Fprintln(w, "  node [shape=box, fontsize=10];")
	if r == nil || len(r.Path) == 0 {
		fmt.Fprintln(w, "  empty [label=\"no critical path\"];")
		fmt.Fprintln(w, "}")
		return
	}
	fmt.Fprintf(w, "  label=\"critical path %d cycles (%.1f%% of makespan %d)\";\n",
		r.PathCycles, r.Coverage*100, r.Makespan)
	for i, seg := range r.Path {
		color := "black"
		switch seg.Kind {
		case "aborted":
			color = "firebrick"
		case "backoff", "idle":
			color = "gray50"
		case "serialized":
			color = "darkorange"
		}
		fmt.Fprintf(w, "  s%d [label=\"core %d att %d\\n%s %d cyc\\n[%d,%d]\", color=%s];\n",
			i, seg.Core, seg.Attempt, seg.Kind, seg.Dur(), seg.Start, seg.End, color)
		if i == 0 {
			continue
		}
		attrs := "color=red, penwidth=2"
		label := seg.Edge
		if seg.Edge == "kill" {
			if seg.Line != 0 {
				label = fmt.Sprintf("kill 0x%x", seg.Line)
			}
			if seg.FP {
				label += " (FP)"
				attrs += ", style=dashed"
			}
		}
		fmt.Fprintf(w, "  s%d -> s%d [label=\"%s\", %s];\n", i-1, i, label, attrs)
	}
	if len(r.Blame) > 0 {
		fmt.Fprint(w, "  legend [shape=plaintext, label=\"blame:")
		for _, b := range r.Blame {
			fmt.Fprintf(w, "\\nline 0x%x  %d cyc (%.0f%%)", b.Line, b.Cycles, b.Share*100)
		}
		fmt.Fprintln(w, "\"];")
	}
	fmt.Fprintln(w, "}")
}

// WriteChrome renders the attempt DAG into the Chrome trace_event format:
// an "X" span per attempt on its core's row, flow ("s"/"f") arrows for
// every kill edge, and a separate "critical path" row (pid 2) replaying
// the path's segments so the chain is visible as one contiguous track.
func (r *Report) WriteChrome(w io.Writer) error {
	if r == nil {
		return EncodeChrome(w, nil)
	}
	var out []ChromeEvent
	var flowID uint64
	for c := range r.PerCore {
		for i := range r.PerCore[c] {
			a := &r.PerCore[c][i]
			args := map[string]any{"stall": uint64(a.Stall)}
			if a.Outcome == Aborted {
				if a.KillLine != 0 {
					args["line"] = fmt.Sprintf("0x%x", a.KillLine)
				}
				args["fp"] = a.KillFP
				if a.KillerCore >= 0 {
					args["killer"] = a.KillerCore
				}
			}
			out = append(out, ChromeEvent{
				Name: a.Outcome.String(), Cat: "attempt", Phase: "X",
				TS: float64(a.Start), Dur: float64(a.End - a.Start),
				PID: 1, TID: a.Core, Args: args,
			})
			if a.Outcome == Aborted && a.KillerCore >= 0 && !a.SelfKill && a.KillAt != 0 {
				flowID++
				out = append(out, ChromeEvent{
					Name: "kill", Cat: "abort-lineage", Phase: "s",
					TS: float64(a.KillAt), PID: 1, TID: a.KillerCore, ID: flowID,
				})
				out = append(out, ChromeEvent{
					Name: "kill", Cat: "abort-lineage", Phase: "f", BP: "e",
					TS: float64(a.End), PID: 1, TID: a.Core, ID: flowID,
				})
			}
		}
	}
	for _, seg := range r.Path {
		out = append(out, ChromeEvent{
			Name: seg.Kind, Cat: "critical-path", Phase: "X",
			TS: float64(seg.Start), Dur: float64(seg.End - seg.Start),
			PID: 2, TID: 0,
			Args: map[string]any{"core": seg.Core, "attempt": seg.Attempt},
		})
	}
	for c := range r.PerCore {
		out = append(out, ChromeEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: c,
			Args: map[string]any{"name": fmt.Sprintf("core %d", c)},
		})
	}
	out = append(out, ChromeEvent{
		Name: "thread_name", Phase: "M", PID: 2, TID: 0,
		Args: map[string]any{"name": "critical path"},
	})
	return EncodeChrome(w, out)
}

// ChromeEvent is one entry in the Chrome trace_event JSON format, loadable
// in chrome://tracing and Perfetto. Simulated cycles are written as
// microseconds (1 cycle == 1 µs), so the viewers' time axis reads directly
// in cycles.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	ID    uint64         `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// EncodeChrome writes events as a {"traceEvents": [...]} document in stable
// timestamp order (metadata and ties keep their insertion order).
func EncodeChrome(w io.Writer, events []ChromeEvent) error {
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}
