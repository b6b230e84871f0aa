package main

import (
	"bytes"
	"os"
	"testing"

	"flextm/internal/flightql"
	"flextm/internal/harness"
)

// goldenQueries is the query set behind testdata/flightql_golden.json, in
// the order `flextm -livelock -query ... -query-out` was given them.
var goldenQueries = []string{
	"group by kind",
	"filter kind == abort-enemy | group by core, peer agg count",
	"filter kind == cm-stall | group by line agg count, sum(dur), max(dur) | top 3 by sum(dur)",
	"at cycle 30000 show cores",
	"at cycle 30000 show lines where writers > 1",
	"filter kind == watchdog-trip | expect count >= 1",
}

// TestFlightQLGoldenOverLivelockProbe pins `flextm -livelock -query-out`:
// the seed-1 ungoverned probe's records, run through the golden query set
// and rendered canonically, must match the checked-in document byte for
// byte. The observation pump the CLI attaches does not change the records,
// so the probe runs bare here.
func TestFlightQLGoldenOverLivelockProbe(t *testing.T) {
	_, out, err := harness.LivelockProbe(1)
	if err != nil {
		t.Fatal(err)
	}
	var results []flightql.QueryResult
	for _, src := range goldenQueries {
		q, err := flightql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.RunEnv(out.Recs, flightql.Env{})
		if err != nil {
			t.Fatalf("query %q: %v", src, err)
		}
		results = append(results, flightql.QueryResult{Query: src, Result: res})
	}
	var got bytes.Buffer
	if err := flightql.WriteResultsJSON(&got, results); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/flightql_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("FlightQL results over the livelock probe differ from testdata/flightql_golden.json (%d bytes, want %d)",
			got.Len(), len(want))
	}
}
