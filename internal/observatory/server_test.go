package observatory

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flextm/internal/flight"
)

func serverFixture(t *testing.T) (*Server, *Bus) {
	t.Helper()
	bus := NewBus()
	return NewServer(bus), bus
}

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	return rr
}

func TestMetricsEndpointServesValidOpenMetrics(t *testing.T) {
	srv, bus := serverFixture(t)

	// Before any frame: still a valid (empty) exposition, never an error —
	// a scraper that arrives early must not flap.
	rr := get(t, srv.Handler(), "/metrics")
	if rr.Code != http.StatusOK {
		t.Fatalf("pre-frame /metrics status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("content type = %q", ct)
	}
	if err := CheckExposition(rr.Body); err != nil {
		t.Fatalf("pre-frame exposition invalid: %v", err)
	}

	bus.Publish(fullFrame())
	rr = get(t, srv.Handler(), "/metrics")
	exp, err := ParseExposition(rr.Body)
	if err != nil {
		t.Fatalf("live exposition invalid: %v", err)
	}
	if exp.Family("flextm_txn_commits") == nil {
		t.Fatal("live scrape has no commit counter")
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	srv, bus := serverFixture(t)
	if rr := get(t, srv.Handler(), "/snapshot.json"); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("pre-frame /snapshot.json status = %d, want 503", rr.Code)
	}
	bus.Publish(fullFrame())
	rr := get(t, srv.Handler(), "/snapshot.json")
	if rr.Code != http.StatusOK {
		t.Fatalf("/snapshot.json status = %d", rr.Code)
	}
	var snap SnapshotJSON
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not JSON: %v", err)
	}
	if snap.Meta.System != "FlexTM(Eager)" || snap.Totals["txn-commits"] != 40 {
		t.Fatalf("snapshot content: %+v", snap)
	}
	if snap.BusPublished != 1 {
		t.Fatalf("busPublished = %d, want 1", snap.BusPublished)
	}
}

func TestDOTAndFlightEndpoints(t *testing.T) {
	srv, bus := serverFixture(t)
	for _, path := range []string{"/conflictgraph.dot", "/flight"} {
		if rr := get(t, srv.Handler(), path); rr.Code != http.StatusServiceUnavailable {
			t.Fatalf("pre-frame %s status = %d, want 503", path, rr.Code)
		}
	}
	bus.Publish(fullFrame())
	rr := get(t, srv.Handler(), "/conflictgraph.dot")
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "digraph") {
		t.Fatalf("/conflictgraph.dot status=%d body=%q", rr.Code, rr.Body.String())
	}
	// A conflict record with a line and the FP bit: /flight renders it the
	// way /query does — line in hex, FP split out of the masked aux.
	f := fullFrame()
	f.Recent = append(f.Recent, flight.Rec{
		At: 300, Seq: 3, Core: 1, Peer: 0, Kind: flight.AbortEnemy,
		Aux: flight.AuxFP | 1, Line: 0x40,
	})
	bus.Publish(f)
	rr = get(t, srv.Handler(), "/flight")
	var fj struct {
		Records []struct {
			Kind string `json:"kind"`
			Aux  uint8  `json:"aux"`
			FP   bool   `json:"fp"`
			Line string `json:"line"`
		} `json:"records"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &fj); err != nil {
		t.Fatalf("/flight is not JSON: %v", err)
	}
	if len(fj.Records) != 3 || fj.Records[0].Kind != "begin" {
		t.Fatalf("/flight records = %+v", fj.Records)
	}
	if r := fj.Records[0]; r.Line != "" || r.FP {
		t.Fatalf("/flight begin record = %+v, want no line and no fp", r)
	}
	if r := fj.Records[2]; r.Line != "0x40" || !r.FP || r.Aux != 1 {
		t.Fatalf("/flight conflict record = %+v, want line 0x40, fp, aux 1", r)
	}
}

func TestIndexListsEndpoints(t *testing.T) {
	srv, bus := serverFixture(t)
	rr := get(t, srv.Handler(), "/")
	for _, want := range []string{"/metrics", "/snapshot.json", "/conflictgraph.dot", "/flight", "/debug/pprof/"} {
		if !strings.Contains(rr.Body.String(), want) {
			t.Errorf("index does not mention %s", want)
		}
	}
	if rr := get(t, srv.Handler(), "/nope"); rr.Code != http.StatusNotFound {
		t.Fatalf("unknown path status = %d", rr.Code)
	}
	bus.Publish(fullFrame())
	if body := get(t, srv.Handler(), "/").Body.String(); !strings.Contains(body, "FlexTM(Eager)") {
		t.Error("index does not identify the live run")
	}
}

// TestQueryEndpoint: /query?q= runs FlightQL over the latest frame's flight
// window, returning canonical JSON (or a table with ?format=table), and maps
// the three failure modes to distinct statuses: no q (400), bad query (400
// with the parse error), no frame yet (503).
func TestQueryEndpoint(t *testing.T) {
	srv, bus := serverFixture(t)

	if rr := get(t, srv.Handler(), "/query"); rr.Code != http.StatusBadRequest {
		t.Fatalf("missing q status = %d, want 400", rr.Code)
	}
	if rr := get(t, srv.Handler(), "/query?q=filter+bogus+%3D%3D+1"); rr.Code != http.StatusBadRequest {
		t.Fatalf("bad query status = %d, want 400", rr.Code)
	}
	if rr := get(t, srv.Handler(), "/query?q=count"); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("pre-frame status = %d, want 503", rr.Code)
	}

	bus.Publish(fullFrame())
	rr := get(t, srv.Handler(), "/query?q=filter+kind+%3D%3D+commit+%7C+count")
	if rr.Code != http.StatusOK {
		t.Fatalf("/query status = %d: %s", rr.Code, rr.Body.String())
	}
	var res struct {
		Kind  string  `json:"kind"`
		Count *uint64 `json:"count"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &res); err != nil {
		t.Fatalf("result is not JSON: %v\n%s", err, rr.Body.String())
	}
	if res.Kind != "count" || res.Count == nil || *res.Count != 1 {
		t.Fatalf("result = %+v, want count 1 (the fixture's one commit)", res)
	}
	// Replay composes over the served window too.
	rr = get(t, srv.Handler(), "/query?q=at+cycle+1000+show+cores+where+commits+%3E+0")
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `"core": 0`) {
		t.Fatalf("replay query: status %d body %s", rr.Code, rr.Body.String())
	}
	// Table form.
	rr = get(t, srv.Handler(), "/query?q=group+by+kind&format=table")
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), "commit") {
		t.Fatalf("table form: status %d body %q", rr.Code, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("table content type = %q", ct)
	}
}

func TestServerStartAndClose(t *testing.T) {
	srv, bus := serverFixture(t)
	bus.Publish(fullFrame())
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := CheckExposition(resp.Body); err != nil {
		t.Fatalf("scrape over TCP invalid: %v", err)
	}
}
