package flightql_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"flextm/internal/flight"
	"flextm/internal/flight/flighttest"
	"flextm/internal/flightql"
)

// diffQueries covers every stage, every field of every row type, every
// operator and literal form, and the error paths of the lexer, the parser,
// literal resolution and stage order.
var diffQueries = []string{
	// Records, every field and operator.
	"filter core == 1",
	"filter peer != -1 && peer < 2",
	"filter kind == cst-set",
	"filter kind != begin && kind <= cm-stall",
	"filter line == 0x40 || line >= 0x200",
	"filter line > 64 && line < 0x100",
	"filter aux >= 2",
	"filter fp == true",
	"filter fp == false && fp != 1",
	"filter fp == 1",
	"filter seq > 100 && seq <= 300",
	"filter at >= 1000 && at < 3000",
	"filter cycle > 500",
	"filter dur > 0 && dur <= 0x1ff",
	"filter kind in [begin, commit, abort]",
	"filter core in [0, 2, 0x3]",
	"filter fp in [true]",
	"filter !(kind == begin) && !(core == 0 || core == 1)",
	"filter (kind == commit || kind == abort) && (core == 1 || peer == 1)",
	"filter kind == 'abort-enemy' || kind == \"cm-stall\"",
	"filter kind == 3",
	// Pipelines.
	"group by kind",
	"group by core, peer",
	"group by line agg count, sum(dur), mean(dur), max(dur), hist(dur)",
	"group by fp, aux agg hist(dur)",
	"group by seq, at agg max(dur)",
	"group by dur",
	"group by core, core",
	"filter kind == cst-set | group by line | top 3 by count",
	"filter kind == cm-stall | group by line agg count, sum(dur), max(dur) | top 3 by sum(dur)",
	"group by core agg mean(dur) | top 2 by mean(dur)",
	"group by core agg max(dur) | top 100 by max(dur)",
	"group by kind | count",
	"group by kind | expect count == 15",
	"filter kind == commit | count",
	"count",
	"count | count",
	"count | expect count > 3",
	"filter kind == commit | expect count == 80",
	"filter kind == cm-stall | expect sum(dur) >= 10",
	"filter kind == cm-stall | expect mean(dur) < 100",
	"filter kind == backoff | expect max(dur) != 0",
	"filter kind == backoff | expect max(dur) <= 7",
	"filter core == 0 | filter kind == begin | filter at > 100",
	// Replay.
	"at cycle 0 show state",
	"at cycle 500 show state",
	"at cycle 1000000000 show state",
	"at cycle 30000 show cores",
	"at cycle 30000 show lines where writers > 1",
	"at cycle 2000 show cores where status == running || status == aborted",
	"at cycle 2000 show cores where status in [idle, serialized]",
	"at cycle 5000 show cores where attempt > 2 && consec-aborts >= 1 && sig-lines > 0",
	"at cycle 5000 show cores where commits > 1 || aborts > 1 || escalations > 0 || trips > 0",
	"at cycle 5000 show cores where core == 1",
	"at cycle 5000 show cores where core == 99",
	"at cycle 5000 show lines",
	"at cycle 5000 show lines where readers > 0 && last-writer != -1",
	"at cycle 5000 show lines where line == 0x80 || conflicts > 3",
	"at cycle 5000 show lines where writers == 99",
	"filter core == 1 | at cycle 100000 show cores where commits > 0",
	"filter kind == cst-set | at cycle 100000 show lines | count",
	"at cycle 5000 show cores | count",
	"at cycle 5000 show lines | expect count >= 1",
	"at cycle 5000 show state | count",
	// Errors: lexer.
	"filter core = 1",
	"filter core == 1 & core == 2",
	"filter kind == 'unterminated",
	"filter core == 0xZZ",
	"filter core == 99999999999999999999",
	"filter core == 1 ; count",
	// Errors: parser.
	"",
	"| count",
	"bogus",
	"filter",
	"filter bogus == 1",
	"filter status == idle",
	"filter 3 == core",
	"filter core",
	"filter core in 1",
	"filter core in [1 2]",
	"filter core in [1,",
	"filter (core == 1",
	"filter core == |",
	"filter core == 1 count",
	"group",
	"group core",
	"group by",
	"group by cycle",
	"group by writers",
	"group by kind agg",
	"group by kind agg bogus",
	"group by kind agg sum",
	"group by kind agg sum(at)",
	"group by kind agg sum(dur",
	"top 0 by count",
	"top -1 by count",
	"top 3",
	"top 3 by hist(dur)",
	"expect hist(dur) == 1",
	"expect count",
	"expect count == kind",
	"expect count in [1]",
	"at 5 show state",
	"at cycle -5 show state",
	"at cycle x show state",
	"at cycle 5 state",
	"at cycle 5 show everything",
	"at cycle 10 show state where core == 0",
	"at cycle 10 show cores where kind == begin",
	"at cycle 10 show lines where status == idle",
	"filter kind == begin | filter-together",
	// Errors: literal resolution, at parse time and, in an 'in' list,
	// for the rows that reach the bad literal.
	"filter kind == not-a-kind",
	"filter fp == maybe",
	"filter core == zero",
	"filter cycle == never",
	"at cycle 10 show cores where status == asleep",
	"at cycle 10 show lines where line == top",
	"filter kind in [begin, bogus]",
	"filter kind in [bogus, begin]",
	"filter core == 99 && kind in [bogus]",
	"filter core == 0 || kind in [commit, nope]",
	"filter fp in [false, maybe]",
	"filter core in [zero]",
	"at cycle 5000 show cores where status in [idle, asleep]",
	"at cycle 5000 show lines where writers in [1, many]",
	// Errors: stage order.
	"group by kind | filter core == 0",
	"group by kind | group by core",
	"count | filter core == 0",
	"top 3 by count",
	"filter kind == begin | top 3 by count",
	"group by kind | top 2 by sum(dur)",
	"group by kind agg sum(dur) | top 2 by mean(dur)",
	"group by kind agg max(dur) | top 2 by max(dur) | top 1 by count",
	"group by kind | expect sum(dur) == 0",
	"count | expect max(dur) > 0",
	"group by kind | at cycle 10 show state",
	"at cycle 10 show state | at cycle 20 show state",
	"expect count == 0 | count",
}

// reportQueries are the observatory HTML report's canned queries, at an
// end cycle inside the test streams.
var reportQueries = []string{
	"group by kind",
	"filter kind == cst-set | group by line agg count | top 5 by count",
	"filter kind == cm-stall | group by line agg count, sum(dur), max(dur) | top 5 by sum(dur)",
	"filter kind == abort-enemy | group by core agg count",
	"at cycle 40000 show cores",
	"at cycle 40000 show lines where writers > 1",
}

// goldenQueries reads the query set of cmd/flextm's FlightQL golden.
func goldenQueries(t testing.TB) []string {
	t.Helper()
	b, err := os.ReadFile("../../cmd/flextm/testdata/flightql_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc []struct{ Query string }
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	qs := make([]string, len(doc))
	for i, d := range doc {
		qs[i] = d.Query
	}
	if len(qs) == 0 {
		t.Fatal("golden holds no queries")
	}
	return qs
}

// rendered is everything a query's caller can see: the error text, or the
// canonical JSON and the table.
func rendered(res *flightql.Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b bytes.Buffer
	if err := res.WriteJSON(&b); err != nil {
		return "json error: " + err.Error()
	}
	res.WriteTable(&b)
	return b.String()
}

// sameAsParent runs src through the engine and the reference and reports
// the first difference in what either shows its caller.
func sameAsParent(src string, recs []flight.Rec, env flightql.Env) error {
	q, err := flightql.Parse(src)
	rq, rerr := refParse(src)
	if err != nil || rerr != nil {
		if fmt.Sprint(err) != fmt.Sprint(rerr) {
			return fmt.Errorf("parse error %v, parent %v", err, rerr)
		}
		return nil
	}
	if q.Source() != rq.Source() {
		return fmt.Errorf("source %q, parent %q", q.Source(), rq.Source())
	}
	got, want := rendered(q.RunEnv(recs, env)), rendered(rq.RunEnv(recs, env))
	if got != want {
		return fmt.Errorf("result differs\n--- engine\n%s\n--- parent\n%s", got, want)
	}
	return nil
}

// randomQuery builds a query from the grammar's parts, valid or not.
func randomQuery(rng *rand.Rand) string {
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	lit := func(field string) string {
		switch field {
		case "kind":
			return pick("begin", "commit", "abort", "abort-enemy", "cst-set", "cm-stall", "backoff", "governor-step", "bogus", "3", "'commit'")
		case "fp":
			return pick("true", "false", "0", "1", "maybe")
		case "line":
			return pick("0x40", "0x80", "0", "128", "0x300")
		}
		return pick("0", "1", "2", "-1", "0x10", "100", "1000", "5000", "zero")
	}
	var cmp func(depth int) string
	cmp = func(depth int) string {
		if depth < 3 {
			switch rng.Intn(6) {
			case 0:
				return cmp(depth+1) + " && " + cmp(depth+1)
			case 1:
				return cmp(depth+1) + " || " + cmp(depth+1)
			case 2:
				return "!(" + cmp(depth+1) + ")"
			}
		}
		f := pick("core", "peer", "kind", "line", "aux", "fp", "seq", "at", "cycle", "dur")
		if rng.Intn(5) == 0 {
			return f + " in [" + lit(f) + ", " + lit(f) + "]"
		}
		return f + " " + pick("==", "!=", "<", "<=", ">", ">=") + " " + lit(f)
	}
	// Mostly the stage order the engine accepts: filters, then a group
	// (maybe ranked), a replay or a collapse; now and then the stages are
	// shuffled into an order it rejects.
	var stages []string
	for n := rng.Intn(3); n > 0; n-- {
		stages = append(stages, "filter "+cmp(0))
	}
	switch rng.Intn(4) {
	case 0:
		s := "group by " + pick("kind", "core", "line", "core, peer", "fp, kind", "aux", "dur")
		if rng.Intn(2) == 0 {
			s += " agg " + pick("count", "sum(dur)", "count, max(dur)", "mean(dur), hist(dur)", "sum(dur), mean(dur), max(dur)")
		}
		stages = append(stages, s)
		if rng.Intn(2) == 0 {
			stages = append(stages, "top "+pick("1", "3")+" by "+pick("count", "sum(dur)", "max(dur)", "mean(dur)"))
		}
	case 1:
		s := "at cycle " + pick("0", "800", "4000", "100000") + " show "
		switch rng.Intn(3) {
		case 0:
			s += "state"
		case 1:
			s += "cores"
			if rng.Intn(2) == 0 {
				s += " where " + pick("status == running", "commits >= 1 && aborts < 3", "core in [0, 1]", "sig-lines > 0 || trips > 0", "status in [idle, bogus]")
			}
		default:
			s += "lines"
			if rng.Intn(2) == 0 {
				s += " where " + pick("writers > 1", "readers >= 1 && conflicts > 1", "line > 0x80", "last-writer in [0, x]")
			}
		}
		stages = append(stages, s)
	case 2:
		stages = append(stages, pick("count", "expect count > 5", "expect sum(dur) >= 100", "expect mean(dur) < 50", "expect max(dur) == 0"))
	}
	if len(stages) == 0 || rng.Intn(8) == 0 {
		stages = append(stages, pick("count", "top 2 by count", "filter core == 0"))
		rng.Shuffle(len(stages), func(i, j int) { stages[i], stages[j] = stages[j], stages[i] })
	}
	return strings.Join(stages, " | ")
}

// diffStreams returns the record streams the differential tests run over:
// empty, in Seq order over a few machine sizes, and shuffled.
func diffStreams() [][]flight.Rec {
	streams := [][]flight.Rec{nil}
	for seed, cores := range []int{1, 2, 4, 16} {
		streams = append(streams, flighttest.Stream(int64(seed+1), 1000, cores))
	}
	shuffled := flighttest.Stream(9, 800, 4)
	rand.New(rand.NewSource(9)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	return append(streams, shuffled)
}

// TestQueryMatchesParent holds the engine to the reference, which resolves
// fields and literals per record: over random record streams, every query
// of the hand-written set, the flextm golden set, the report's canned set
// and a seeded random set must give byte-identical JSON, tables and errors,
// with and without an explicit core count.
func TestQueryMatchesParent(t *testing.T) {
	queries := append(append(append([]string{}, diffQueries...), goldenQueries(t)...), reportQueries...)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		queries = append(queries, randomQuery(rng))
	}
	for si, recs := range diffStreams() {
		for _, env := range []flightql.Env{{}, {Cores: 16}} {
			for _, src := range queries {
				if err := sameAsParent(src, recs, env); err != nil {
					t.Fatalf("stream %d, cores %d, query %q: %v", si, env.Cores, src, err)
				}
			}
		}
	}
}

// FuzzQuery feeds arbitrary query text over a seeded random stream to the
// engine and the reference; what either shows its caller must agree.
func FuzzQuery(f *testing.F) {
	for i, src := range append(append([]string{}, diffQueries...), reportQueries...) {
		f.Add(src, int64(i))
	}
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		recs := flighttest.Stream(seed, 300, 1+int(uint64(seed)%6))
		if err := sameAsParent(src, recs, flightql.Env{}); err != nil {
			t.Fatalf("query %q: %v", src, err)
		}
	})
}

// TestQueryAllocations pins allocation per result, not per record: a
// filter and a two-field group over 1k and over 20k records, which hold
// the same groups, allocate the same number of times.
func TestQueryAllocations(t *testing.T) {
	q, err := flightql.Parse("filter kind != begin && dur < 1000 | group by core, peer agg count")
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(recs []flight.Rec) float64 {
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(20, func() {
			if _, err := q.Run(recs); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := flighttest.Stream(1, 1000, 4), flighttest.Stream(2, 20000, 4)
	rs, _ := q.Run(small)
	rl, _ := q.Run(large)
	if len(rs.Groups) != len(rl.Groups) {
		t.Fatalf("streams hold %d and %d groups; the comparison needs equal ones", len(rs.Groups), len(rl.Groups))
	}
	if a, b := allocs(small), allocs(large); a != b {
		t.Errorf("%v allocations over 1k records, %v over 20k: want equal", a, b)
	}
}

// BenchmarkQuery prices the postmortem query set over a 20k-record stream,
// on the engine and on the reference.
func BenchmarkQuery(b *testing.B) {
	recs := flighttest.Stream(1, 20000, 16)
	queries := goldenQueries(b)
	for _, eng := range []struct {
		name string
		run  func(src string) (*flightql.Result, error)
	}{
		{"engine", func(src string) (*flightql.Result, error) { return flightql.Run(src, recs) }},
		{"parent", func(src string) (*flightql.Result, error) { return refRun(src, recs) }},
	} {
		b.Run(eng.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, src := range queries {
					if _, err := eng.run(src); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
