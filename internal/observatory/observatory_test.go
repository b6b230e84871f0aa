package observatory

import (
	"slices"
	"testing"

	"flextm/internal/flight"
	"flextm/internal/telemetry"
)

// snap1 builds a one-core snapshot with the given counter values.
func snap1(set map[telemetry.Counter]uint64) telemetry.Snapshot {
	s := telemetry.Snapshot{Cores: make([]telemetry.CoreSnapshot, 1)}
	for c, v := range set {
		s.Cores[0].Counters[c] = v
	}
	return s
}

func TestFrameDerivedRates(t *testing.T) {
	f := &Frame{
		Start: 1_000_000, End: 2_000_000,
		Delta: snap1(map[telemetry.Counter]uint64{
			telemetry.CtrTxnCommits: 100,
			telemetry.CtrTxnAborts:  25,
		}),
	}
	if w := f.IntervalCycles(); w != 1_000_000 {
		t.Fatalf("interval width = %d, want 1000000", w)
	}
	if r := f.CommitRate(); r != 100 {
		t.Fatalf("commit rate = %f, want 100 per Mc", r)
	}
	if r := f.AbortRatio(); r != 0.2 {
		t.Fatalf("abort ratio = %f, want 0.2", r)
	}
}

func TestFrameRatesDegenerateInputs(t *testing.T) {
	empty := &Frame{Start: 5, End: 5}
	if empty.IntervalCycles() != 0 || empty.CommitRate() != 0 || empty.AbortRatio() != 0 {
		t.Fatalf("zero-width frame produced non-zero rates")
	}
	var nilFrame *Frame
	if nilFrame.IntervalCycles() != 0 {
		t.Fatal("nil frame has non-zero width")
	}
	if nilFrame.Pathologies() != nil {
		t.Fatal("nil frame has pathologies")
	}
}

// When observation is off (a nil pump, the disabled state every call site
// uses), the hot path must not allocate.
func TestDisabledObservationIsAllocationFree(t *testing.T) {
	var p *Pump
	if n := testing.AllocsPerRun(1000, func() {
		p.Tick(12345)
		p.Finish(99999)
		p.RequestFlush()
		_ = p.Interval()
	}); n != 0 {
		t.Fatalf("disabled observation allocates %.1f times per event, want 0", n)
	}
}

func TestPumpTicksDiffAndAccumulate(t *testing.T) {
	tel := telemetry.New(2)
	fl := flight.New(2, 64)
	var read []*Frame
	p := NewPump(Config{Interval: 1000, Readers: []func(*Frame){func(f *Frame) { read = append(read, f) }}})
	p.Bind(tel, fl, Meta{System: "FlexTM(Eager)", Workload: "unit", Threads: 2, Cores: 2}, nil)

	tel.Add(0, telemetry.CtrTxnCommits, 10)
	fl.Rec(0, 500, flight.TxnBegin, -1, 0, 0)
	f0 := p.Tick(1000)
	if f0.Index != 0 || f0.Start != 0 || f0.End != 1000 {
		t.Fatalf("first frame bounds: %+v", f0)
	}
	if got := f0.Delta.Total(telemetry.CtrTxnCommits); got != 10 {
		t.Fatalf("first delta commits = %d, want 10", got)
	}
	if len(f0.Recent) != 1 {
		t.Fatalf("first window = %d records, want 1", len(f0.Recent))
	}

	tel.Add(1, telemetry.CtrTxnCommits, 5)
	f1 := p.Tick(2000)
	if f1.Index != 1 || f1.Start != 1000 || f1.End != 2000 {
		t.Fatalf("second frame bounds: %+v", f1)
	}
	if got := f1.Delta.Total(telemetry.CtrTxnCommits); got != 5 {
		t.Fatalf("second delta commits = %d, want 5 (diff, not cumulative)", got)
	}
	if got := f1.Cum.Total(telemetry.CtrTxnCommits); got != 15 {
		t.Fatalf("second cum commits = %d, want 15", got)
	}

	fin := p.Finish(2500)
	if !fin.Final {
		t.Fatal("Finish frame not marked Final")
	}
	if len(read) != 3 || read[0] != f0 || read[1] != f1 || read[2] != fin {
		t.Fatalf("reader saw %d frames, want f0, f1, fin in order", len(read))
	}
}

func TestPumpWindowSlides(t *testing.T) {
	tel := telemetry.New(1)
	fl := flight.New(1, DefaultWindow+64)
	p := NewPump(Config{Interval: 100})
	p.Bind(tel, fl, Meta{Cores: 1}, nil)
	const n = DefaultWindow + 12
	for i := 0; i < n; i++ {
		fl.Rec(0, 0, flight.TxnBegin, -1, 0, 0)
	}
	f := p.Tick(100)
	if len(f.Recent) != DefaultWindow {
		t.Fatalf("window = %d records, want cap %d", len(f.Recent), DefaultWindow)
	}
	// The window keeps the newest records.
	if f.Recent[len(f.Recent)-1].Seq != n {
		t.Fatalf("window tail seq = %d, want %d", f.Recent[len(f.Recent)-1].Seq, n)
	}
	// Frames are immutable: a later tick must not mutate an older frame's
	// window in place.
	tail := f.Recent[0].Seq
	for i := 0; i < 8; i++ {
		fl.Rec(0, 0, flight.TxnCommit, -1, 0, 0)
	}
	p.Tick(200)
	if f.Recent[0].Seq != tail {
		t.Fatal("earlier frame's window was mutated by a later tick")
	}
}

func TestPumpRebindResetsIntervalState(t *testing.T) {
	tel := telemetry.New(1)
	var fr []*Frame
	p := NewPump(Config{Interval: 100, Readers: []func(*Frame){func(f *Frame) { fr = append(fr, f) }}})
	p.Bind(tel, nil, Meta{Workload: "first"}, nil)
	tel.Add(0, telemetry.CtrTxnCommits, 7)
	p.Tick(100)

	tel2 := telemetry.New(1)
	p.Bind(tel2, nil, Meta{Workload: "second"}, nil)
	tel2.Add(0, telemetry.CtrTxnCommits, 3)
	f := p.Tick(100)
	if f.Index != 0 {
		t.Fatalf("rebound pump index = %d, want 0", f.Index)
	}
	if got := f.Delta.Total(telemetry.CtrTxnCommits); got != 3 {
		t.Fatalf("rebound delta = %d, want 3 (stale prev snapshot leaked)", got)
	}
	// The reader sees both runs, distinguished by Meta.
	if len(fr) != 2 || fr[0].Meta.Workload != "first" || fr[1].Meta.Workload != "second" {
		t.Fatalf("frames across rebind: %+v", fr)
	}
}

// TestPumpAnnotatesBeforeReaders: the bound governor annotation sees each
// frame before the configured readers, in their order, and a rebind without
// one leaves later frames unannotated.
func TestPumpAnnotatesBeforeReaders(t *testing.T) {
	var order []string
	reader := func(name string) func(*Frame) {
		return func(f *Frame) {
			if f.Gov == nil {
				name += " (no gov)"
			}
			order = append(order, name)
		}
	}
	p := NewPump(Config{Interval: 100, Readers: []func(*Frame){reader("a"), reader("b")}})
	gov := func(f *Frame) {
		order = append(order, "gov")
		f.Gov = &GovSample{Level: 1}
	}
	p.Bind(telemetry.New(1), nil, Meta{}, gov)
	p.Tick(100)
	p.Bind(telemetry.New(1), nil, Meta{}, nil)
	p.Tick(100)
	want := []string{"gov", "a", "b", "a (no gov)", "b (no gov)"}
	if !slices.Equal(order, want) {
		t.Fatalf("read order %q, want %q", order, want)
	}
}

func TestPumpFlushRequestFiresOnceInsideTick(t *testing.T) {
	tel := telemetry.New(1)
	var flushed []*Frame
	p := NewPump(Config{Interval: 100, OnFlush: func(f *Frame) { flushed = append(flushed, f) }})
	p.Bind(tel, nil, Meta{}, nil)
	p.Tick(100)
	if len(flushed) != 0 {
		t.Fatal("OnFlush fired without RequestFlush")
	}
	p.RequestFlush()
	f := p.Tick(200)
	if len(flushed) != 1 || flushed[0] != f {
		t.Fatalf("OnFlush fired %d times, want once with the tick's frame", len(flushed))
	}
	p.Tick(300)
	if len(flushed) != 1 {
		t.Fatal("OnFlush re-fired without a new request")
	}
}

func TestServerPublishKeepsLatest(t *testing.T) {
	s := NewServer()
	if s.Latest() != nil {
		t.Fatal("fresh server has a latest frame")
	}
	f0 := &Frame{Index: 0}
	f1 := &Frame{Index: 1}
	s.Publish(f0)
	s.Publish(f1)
	if s.Latest() != f1 {
		t.Fatal("Latest is not the most recent publish")
	}
	if got := NewSnapshotJSON(f1, s.published.Load()).Published; got != 2 {
		t.Fatalf("published = %d, want 2", got)
	}
}
