package harness

import (
	"bytes"
	"reflect"
	"testing"

	cellcache "flextm/internal/sweepexec/cache"
	"flextm/internal/workloads"
)

// replayCell is one real cell of the replay benchmark's shape: FlexTM
// (Eager) on 16 threads with Metrics and Flight on.
func replayCell(tb testing.TB) RunConfig {
	tb.Helper()
	f, ok := workloads.ByName("RBTree")
	if !ok {
		tb.Fatal("no RBTree workload")
	}
	return RunConfig{
		System: FlexTMEager, Workload: f, Threads: 16, OpsPerThread: 20, WarmupOps: 64,
		Machine: QuickSweep().Machine, Verify: true, Metrics: true, Flight: true,
	}
}

// encodedReplayCell runs replayCell live and returns its run-codec payload.
func encodedReplayCell(tb testing.TB) (Result, []byte) {
	tb.Helper()
	res, err := Run(replayCell(tb))
	if err != nil {
		tb.Fatal(err)
	}
	mirror := mirrorResult(res)
	return res, appendRun(nil, &mirror)
}

// fillLeaves sets every leaf of v to a distinct nonzero value, giving each
// slice and map two elements and allocating every pointer. A leaf kind it
// does not know fails the test, so a new field cannot slip past unfilled.
func fillLeaves(t *testing.T, v reflect.Value, next *uint64) {
	t.Helper()
	*next++
	n := *next
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillLeaves(t, v.Field(i), next)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillLeaves(t, v.Index(i), next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillLeaves(t, v.Index(i), next)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillLeaves(t, v.Elem(), next)
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			e := reflect.New(v.Type().Elem()).Elem()
			fillLeaves(t, k, next)
			fillLeaves(t, e, next)
			v.SetMapIndex(k, e)
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("s" + string(rune('a'+n%26)) + string(rune('a'+n/26%26)))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		// Alternate signs so zigzag encoding is exercised both ways.
		x := int64(n%100 + 1)
		if n%2 == 0 {
			x = -x
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(n%250 + 1)
		if v.Type().Bits() == 64 {
			v.SetUint(n<<40 | n) // multi-byte varints
		}
	case reflect.Float64:
		v.SetFloat(float64(n) + 0.25)
	default:
		t.Fatalf("fillLeaves: unhandled kind %s (%s): teach the run codec and this test the new field", v.Kind(), v.Type())
	}
}

// filledResult is a cachedResult with every leaf set.
func filledResult(t *testing.T) cachedResult {
	var cv cachedResult
	var n uint64
	fillLeaves(t, reflect.ValueOf(&cv).Elem(), &n)
	return cv
}

// TestRunCodecRoundTripsEveryField: every leaf of cachedResult — through
// tmesi.Stats, telemetry.CoreSnapshot, flight.Rec and fault.Report — set
// to a distinct nonzero value survives encode then decode. A field added
// anywhere without a codec update decodes as zero and fails here.
func TestRunCodecRoundTripsEveryField(t *testing.T) {
	cv := filledResult(t)
	// Out-of-order records: At and Seq deltas must round-trip negative.
	cv.FlightRecs[0].At, cv.FlightRecs[1].At = 900, 100
	cv.FlightRecs[0].Seq, cv.FlightRecs[1].Seq = 7, 3
	got, err := decodeRun(appendRun(nil, &cv))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cv) {
		t.Fatalf("round trip differs:\n got %+v\nwant %+v", got, cv)
	}
}

// TestRunCodecRoundTripsARealCell: a live 16-thread Metrics+Flight cell
// decodes to a mirror equal to the one it was encoded from, and replays
// with a flight recorder.
func TestRunCodecRoundTripsARealCell(t *testing.T) {
	res, payload := encodedReplayCell(t)
	want := mirrorResult(res)
	got, err := decodeRun(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("decoded mirror differs from the live one")
	}
	if len(got.FlightRecs) == 0 || got.Telemetry == nil {
		t.Fatalf("fixture lacks records (%d) or telemetry", len(got.FlightRecs))
	}
	if got.result(replayCell(t).Machine.Cores).Flight == nil {
		t.Fatal("no recorder rebuilt")
	}
}

// TestRunCodecHasFlightWithoutRecords: a flight-on run with no records
// still replays with a recorder.
func TestRunCodecHasFlightWithoutRecords(t *testing.T) {
	cv := cachedResult{System: FlexTMLazy, HasFlight: true}
	got, err := decodeRun(appendRun(nil, &cv))
	if err != nil {
		t.Fatal(err)
	}
	if got.result(4).Flight == nil {
		t.Fatal("HasFlight with zero records rebuilt no recorder")
	}
}

// TestRunCodecRejectsEveryProperPrefix: every proper prefix of a real
// encoded cell, and the cell with a byte appended, is a decode error —
// never a panic and never a hit.
func TestRunCodecRejectsEveryProperPrefix(t *testing.T) {
	_, payload := encodedReplayCell(t)
	step := 1
	if raceEnabled {
		step = 97 // the detector slows the quadratic walk a hundredfold
	}
	for n := 0; n < len(payload); n += step {
		if _, err := decodeRun(payload[:n]); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte payload decoded", n, len(payload))
		}
	}
	if _, err := decodeRun(append(payload[:len(payload):len(payload)], 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestRunCodecUnderTheStore: a run payload read back through the store's
// envelope decodes to the same mirror, and a payload of the wrong shape
// is counted corrupt.
func TestRunCodecUnderTheStore(t *testing.T) {
	store, err := cellcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cv := filledResult(t)
	schema := cellSchema("run")
	if err := store.Put("abcd", schema, appendRun(nil, &cv)); err != nil {
		t.Fatal(err)
	}
	var got cachedResult
	decode := func(p []byte) (err error) {
		got, err = decodeRun(p)
		return err
	}
	if !store.Get("abcd", schema, decode) || !reflect.DeepEqual(got, cv) {
		t.Fatal("run payload did not survive the store")
	}
	if err := store.Put("abcd", schema, []byte(`{"system":"FlexTM"}`)); err != nil {
		t.Fatal(err)
	}
	if store.Get("abcd", schema, decode) || store.Stats().Corrupt != 1 {
		t.Fatalf("wrong-shape payload not a corrupt miss: %+v", store.Stats())
	}
}

// FuzzDecodeRun: no input panics the decoder or the replay behind it, and
// whatever decodes re-encodes to a fixed point.
func FuzzDecodeRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, p []byte) {
		cv, err := decodeRun(p)
		if err != nil {
			return
		}
		_ = cv.result(16)
		once := appendRun(nil, &cv)
		again, err := decodeRun(once)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if twice := appendRun(nil, &again); !bytes.Equal(once, twice) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}

// storeRunCell opens a store in a temporary directory and fills it with
// replayCell's entry, returning what a warm Get needs.
func storeRunCell(b *testing.B) (store *cellcache.Store, key, schema string, res Result) {
	b.Helper()
	store, err := cellcache.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	rc := replayCell(b)
	if res, err = Run(rc); err != nil {
		b.Fatal(err)
	}
	schema = cellSchema("run")
	if key, err = runCellKey(schema, rc); err != nil {
		b.Fatal(err)
	}
	mirror := mirrorResult(res)
	if err := store.Put(key, schema, appendRun(nil, &mirror)); err != nil {
		b.Fatal(err)
	}
	return store, key, schema, res
}

// BenchmarkStoreGetRun prices RunCell's warm hit on one real 16-thread
// Metrics+Flight cell: the file read, the envelope and digest check, the
// run decode and the flight recorder rebuild.
func BenchmarkStoreGetRun(b *testing.B) {
	store, key, schema, _ := storeRunCell(b)
	cores := replayCell(b).Machine.Cores
	var cv cachedResult
	decode := func(p []byte) (err error) {
		cv, err = decodeRun(p)
		return err
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !store.Get(key, schema, decode) {
			b.Fatal("warm Get missed")
		}
		_ = cv.result(cores)
	}
}

// BenchmarkStorePutRun prices RunCell's store on a miss for the same cell:
// the mirror, the run encode, the envelope and the write-then-rename.
func BenchmarkStorePutRun(b *testing.B) {
	store, key, schema, res := storeRunCell(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mirror := mirrorResult(res)
		if err := store.Put(key, schema, appendRun(nil, &mirror)); err != nil {
			b.Fatal(err)
		}
	}
}
