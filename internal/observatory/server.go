// The observatory HTTP server: OpenMetrics at /metrics, the latest frame
// as JSON at /snapshot.json, a live conflict graph at /conflictgraph.dot,
// the latest flight-record window at /flight, and net/http/pprof under
// /debug/pprof/. Handlers only ever read immutable frames off the bus, so
// they are safe against the running simulation by construction.

package observatory

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"flextm/internal/flightql"
	"flextm/internal/telemetry"
)

// Server serves the observation plane over HTTP.
type Server struct {
	bus *Bus
	mux *http.ServeMux
	ln  net.Listener
	srv *http.Server
}

// NewServer returns a server reading frames from bus.
func NewServer(bus *Bus) *Server {
	s := &Server{bus: bus, mux: http.NewServeMux()}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/snapshot.json", s.handleSnapshot)
	s.mux.HandleFunc("/conflictgraph.dot", s.handleDOT)
	s.mux.HandleFunc("/flight", s.handleFlight)
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the server's routing handler (for tests via httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (":0" picks a free port) and serves in the
// background, returning the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux}
	go s.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops the listener.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "flextm observatory")
	if f := s.bus.Latest(); f != nil {
		fmt.Fprintf(w, "run: %s / %s @ %d threads (%d cores), interval %d, t=%d\n",
			f.Meta.System, f.Meta.Workload, f.Meta.Threads, f.Meta.Cores, f.Index, f.End)
	} else {
		fmt.Fprintln(w, "run: no frame published yet")
	}
	fmt.Fprintln(w, "\nendpoints:")
	fmt.Fprintln(w, "  /metrics            OpenMetrics exposition (Prometheus-scrapable)")
	fmt.Fprintln(w, "  /snapshot.json      latest frame: totals, interval rates, pathologies")
	fmt.Fprintln(w, "  /conflictgraph.dot  live conflict graph (Graphviz DOT)")
	fmt.Fprintln(w, "  /flight             latest flight-record window (JSON)")
	fmt.Fprintln(w, "  /query?q=EXPR       FlightQL over the latest flight window (canonical JSON)")
	fmt.Fprintln(w, "  /debug/pprof/       Go runtime profiles")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	WriteOpenMetrics(w, s.bus.Latest(), s.bus)
}

// SnapshotJSON is the machine-readable view of a frame served at
// /snapshot.json.
type SnapshotJSON struct {
	Meta           Meta                  `json:"meta"`
	Index          int                   `json:"index"`
	Final          bool                  `json:"final"`
	Start          uint64                `json:"start"`
	End            uint64                `json:"end"`
	Totals         map[string]uint64     `json:"totals"`
	IntervalTotals map[string]uint64     `json:"intervalTotals,omitempty"`
	Attribution    telemetry.Attribution `json:"attribution"`
	CommitRate     float64               `json:"intervalCommitRate"`
	AbortRatio     float64               `json:"intervalAbortRatio"`
	SigFPObserved  float64               `json:"sigFPObserved"`
	SigFPPredicted float64               `json:"sigFPPredicted"`
	Pathologies    map[string]uint64     `json:"pathologies,omitempty"`
	WindowRecords  int                   `json:"windowRecords"`
	BusPublished   uint64                `json:"busPublished"`
	BusDropped     uint64                `json:"busDropped"`
}

// NewSnapshotJSON builds the /snapshot.json view of a frame.
func NewSnapshotJSON(f *Frame, bus *Bus) SnapshotJSON {
	obs, pred := f.Cum.SigFPRates()
	return SnapshotJSON{
		Meta:           f.Meta,
		Index:          f.Index,
		Final:          f.Final,
		Start:          uint64(f.Start),
		End:            uint64(f.End),
		Totals:         f.Cum.Totals(),
		IntervalTotals: f.Delta.Totals(),
		Attribution:    f.Cum.Attribution(),
		CommitRate:     f.CommitRate(),
		AbortRatio:     f.AbortRatio(),
		SigFPObserved:  obs,
		SigFPPredicted: pred,
		Pathologies:    f.Pathologies(),
		WindowRecords:  len(f.Recent),
		BusPublished:   bus.Published(),
		BusDropped:     bus.Dropped(),
	}
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	f := s.bus.Latest()
	if f == nil {
		http.Error(w, `{"error":"no frame published yet"}`, http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(NewSnapshotJSON(f, s.bus))
}

func (s *Server) handleDOT(w http.ResponseWriter, r *http.Request) {
	f := s.bus.Latest()
	if f == nil || f.Report == nil {
		http.Error(w, "no conflict-graph report yet (flight recorder detached?)", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
	f.Report.WriteDOT(w)
}

// handleFlight serves the latest frame's flight window, each record in
// FlightQL's record view (the shape /query record results take).
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	f := s.bus.Latest()
	if f == nil {
		http.Error(w, `{"error":"no frame published yet"}`, http.StatusServiceUnavailable)
		return
	}
	out := make([]flightql.RecView, len(f.Recent))
	for i := range f.Recent {
		out[i] = flightql.ViewRec(&f.Recent[i])
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Meta    Meta               `json:"meta"`
		End     uint64             `json:"end"`
		Records []flightql.RecView `json:"records"`
	}{f.Meta, uint64(f.End), out})
}

// handleQuery runs one FlightQL query (?q=EXPR) over the latest frame's
// flight window and returns the canonical JSON result. The window is the
// pump's record retention, not the full run — cursor-style scoping (filter
// at >= N) composes inside the query itself. ?format=table returns the
// aligned text rendering instead.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	src := r.URL.Query().Get("q")
	if src == "" {
		http.Error(w, `{"error":"missing ?q=EXPR"}`, http.StatusBadRequest)
		return
	}
	q, err := flightql.Parse(src)
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusBadRequest)
		return
	}
	f := s.bus.Latest()
	if f == nil {
		http.Error(w, `{"error":"no frame published yet"}`, http.StatusServiceUnavailable)
		return
	}
	res, err := q.RunEnv(f.Recent, flightql.Env{Cores: f.Meta.Cores})
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusUnprocessableEntity)
		return
	}
	if r.URL.Query().Get("format") == "table" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		res.WriteTable(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	res.WriteJSON(w)
}
