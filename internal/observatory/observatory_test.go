package observatory

import (
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

// The acceptance criterion from the issue: when observation is off (nil
// pump, nil bus — the disabled state every call site uses), the hot path
// must not allocate.
func TestDisabledObservationIsAllocationFree(t *testing.T) {
	var p *Pump
	var b *Bus
	f := &Frame{}
	if n := testing.AllocsPerRun(1000, func() {
		p.Tick(12345)
		p.Finish(99999)
		p.RequestFlush()
		_ = p.Interval()
		_ = p.Frames()
		_ = p.Final()
		b.Publish(f)
		_ = b.Latest()
		_ = b.Published()
		_ = b.Dropped()
	}); n != 0 {
		t.Fatalf("disabled observation allocates %.1f times per event, want 0", n)
	}
}

func TestPumpTicksDiffAndAccumulate(t *testing.T) {
	tel := telemetry.New(2)
	fl := flight.New(2, 64)
	p := NewPump(Config{Interval: 1000, Retain: true})
	p.Bind(tel, fl, Meta{System: "FlexTM(Eager)", Workload: "unit", Threads: 2, Cores: 2})

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
	if got := len(p.Frames()); got != 3 {
		t.Fatalf("retained %d frames, want 3", got)
	}
	if p.Final() != fin {
		t.Fatal("Final() is not the last retained frame")
	}
}

func TestPumpWindowSlides(t *testing.T) {
	tel := telemetry.New(1)
	fl := flight.New(1, DefaultWindow+64)
	p := NewPump(Config{Interval: 100})
	p.Bind(tel, fl, Meta{Cores: 1})
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
	p := NewPump(Config{Interval: 100, Retain: true})
	p.Bind(tel, nil, Meta{Workload: "first"})
	tel.Add(0, telemetry.CtrTxnCommits, 7)
	p.Tick(100)

	tel2 := telemetry.New(1)
	p.Bind(tel2, nil, Meta{Workload: "second"})
	tel2.Add(0, telemetry.CtrTxnCommits, 3)
	f := p.Tick(100)
	if f.Index != 0 {
		t.Fatalf("rebound pump index = %d, want 0", f.Index)
	}
	if got := f.Delta.Total(telemetry.CtrTxnCommits); got != 3 {
		t.Fatalf("rebound delta = %d, want 3 (stale prev snapshot leaked)", got)
	}
	// Retained frames span both runs, distinguished by Meta.
	fr := p.Frames()
	if len(fr) != 2 || fr[0].Meta.Workload != "first" || fr[1].Meta.Workload != "second" {
		t.Fatalf("retained frames across rebind: %+v", fr)
	}
}

func TestPumpFlushRequestFiresOnceInsideTick(t *testing.T) {
	tel := telemetry.New(1)
	var flushed []*Frame
	p := NewPump(Config{Interval: 100, OnFlush: func(f *Frame) { flushed = append(flushed, f) }})
	p.Bind(tel, nil, Meta{})
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

func TestBusPublishSubscribe(t *testing.T) {
	b := NewBus()
	if b.Latest() != nil {
		t.Fatal("fresh bus has a latest frame")
	}
	ch, cancel := b.Subscribe(4)
	defer cancel()

	f0 := &Frame{Index: 0}
	f1 := &Frame{Index: 1}
	b.Publish(f0)
	b.Publish(f1)
	if b.Latest() != f1 {
		t.Fatal("Latest is not the most recent publish")
	}
	if b.Published() != 2 {
		t.Fatalf("published = %d, want 2", b.Published())
	}
	if got := <-ch; got != f0 {
		t.Fatalf("subscriber got frame %d first, want 0", got.Index)
	}
	if got := <-ch; got != f1 {
		t.Fatalf("subscriber got frame %d second, want 1", got.Index)
	}
	// nil publishes are ignored, not delivered.
	b.Publish(nil)
	if b.Published() != 2 {
		t.Fatal("nil frame counted as published")
	}
}

func TestBusDropsForSlowSubscribers(t *testing.T) {
	b := NewBus()
	ch, cancel := b.Subscribe(1)
	defer cancel()
	b.Publish(&Frame{Index: 0})
	b.Publish(&Frame{Index: 1}) // buffer full: dropped, not blocked
	b.Publish(&Frame{Index: 2})
	if b.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", b.Dropped())
	}
	if got := <-ch; got.Index != 0 {
		t.Fatalf("survivor frame = %d, want 0", got.Index)
	}
	// The latest cell still has the newest frame regardless of drops.
	if b.Latest().Index != 2 {
		t.Fatal("Latest lost to subscriber backpressure")
	}
}

func TestBusCancelUnsubscribes(t *testing.T) {
	b := NewBus()
	ch, cancel := b.Subscribe(1)
	cancel()
	b.Publish(&Frame{})
	select {
	case <-ch:
		t.Fatal("cancelled subscriber still receives")
	default:
	}
	if b.Dropped() != 0 {
		t.Fatal("publish to no subscribers counted a drop")
	}
}
