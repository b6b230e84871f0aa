package trace

import (
	"encoding/json"
	"io"
	"sort"
)

// ChromeEvent is one entry in the Chrome trace_event JSON format, loadable
// in chrome://tracing and Perfetto. Simulated cycles are written as
// microseconds (1 cycle == 1 µs), so the viewers' time axis reads directly
// in cycles. The attempt-timeline renderer (causal.Report.WriteChrome)
// emits into this format.
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
