package harness

import (
	"reflect"
	"testing"

	"flextm/internal/conflictgraph"
	"flextm/internal/flight"
	"flextm/internal/governor"
	"flextm/internal/observatory"
	"flextm/internal/sim"
	"flextm/internal/telemetry"
	"flextm/internal/tmesi"
	"flextm/internal/workloads"
)

// collectingPump returns a pump sampling every iv cycles whose first reader
// appends each frame to the returned slice; more readers follow in order.
func collectingPump(iv sim.Time, more ...func(*observatory.Frame)) (*observatory.Pump, *[]*observatory.Frame) {
	frames := new([]*observatory.Frame)
	collect := func(f *observatory.Frame) { *frames = append(*frames, f) }
	pump := observatory.NewPump(observatory.Config{
		Interval: iv, Readers: append([]func(*observatory.Frame){collect}, more...),
	})
	return pump, frames
}

// The observation plane must be a pure reader: attaching a pump cannot
// change what the run computes or how long it takes. This is the
// determinism half of the observatory acceptance criteria.
func TestObservationDoesNotPerturbResults(t *testing.T) {
	f, _ := workloads.ByName("HashTable")
	rc := RunConfig{
		System: FlexTMLazy, Workload: f, Threads: 4, OpsPerThread: 50,
		WarmupOps: 40, Machine: tmesi.DefaultConfig(), Verify: true,
	}
	plain, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}

	srv := observatory.NewServer()
	pump, frames := collectingPump(5_000, srv.Publish)
	rc.Observe = pump
	observed, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if observed.Commits != plain.Commits || observed.Aborts != plain.Aborts {
		t.Fatalf("observation changed the run: commits %d->%d aborts %d->%d",
			plain.Commits, observed.Commits, plain.Aborts, observed.Aborts)
	}
	if observed.Cycles != plain.Cycles {
		t.Fatalf("observation changed the makespan: %d -> %d cycles (pump overshoot leaked into Result)",
			plain.Cycles, observed.Cycles)
	}

	// The pump actually sampled: several interval frames plus a final one,
	// each handed to every reader in turn.
	if len(*frames) < 2 {
		t.Fatalf("pump produced %d frames, want interval samples plus a final", len(*frames))
	}
	last := (*frames)[len(*frames)-1]
	if !last.Final {
		t.Fatal("last frame is not Final")
	}
	if srv.Latest() != last {
		t.Fatal("the server's latest frame is not the run's final frame")
	}
	// Interval deltas must sum to the cumulative totals: the stream is a
	// partition of the run, not an approximation of it.
	var sum uint64
	for _, fr := range *frames {
		sum += fr.Delta.Total(telemetry.CtrTxnCommits)
	}
	if cum := last.Cum.Total(telemetry.CtrTxnCommits); sum != cum {
		t.Fatalf("interval deltas sum to %d, cumulative is %d", sum, cum)
	}
	// Observe forces instrumentation on, so the result carries telemetry.
	if observed.Telemetry == nil {
		t.Fatal("Observe did not force Metrics on")
	}
}

// The live-detection half of the acceptance criteria: watching
// LivelockProbe must surface the abort-cycle pathology in a frame that
// closes before the watchdog trips — the watcher sees the livelock while
// it is still in progress, not in the post-mortem.
func TestObservedLivelockFlagsAbortCycleBeforeWatchdog(t *testing.T) {
	pump, collected := collectingPump(1_000)
	rep, out, err := LivelockProbe(1, nil, pump)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Has(conflictgraph.AbortCycle) {
		t.Fatal("probe's own post-mortem found no abort cycle")
	}

	frames := *collected
	if len(frames) == 0 {
		t.Fatal("pump produced no frames")
	}
	var detectedAt uint64
	found := false
	for _, fr := range frames {
		if fr.Report != nil && fr.Report.Has(conflictgraph.AbortCycle) {
			detectedAt = uint64(fr.End)
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no frame's windowed report flagged the abort cycle")
	}

	// First watchdog trip in the flight stream: scan the last frame's
	// window (the probe is short; nothing has been overwritten).
	var tripAt uint64
	tripped := false
	for _, rec := range frames[len(frames)-1].Recent {
		if rec.Kind == flight.WatchdogTrip {
			tripAt = uint64(rec.At)
			tripped = true
			break
		}
	}
	if !tripped {
		t.Fatal("duel never tripped the watchdog (probe misconfigured?)")
	}
	if detectedAt >= tripAt {
		t.Fatalf("live detection at t=%d is not before the watchdog trip at t=%d", detectedAt, tripAt)
	}
	// The unobserved probe still behaves identically.
	_, plain, err := LivelockProbe(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, out) {
		t.Fatalf("observation changed the probe outcome: %+v vs %+v", plain, out)
	}
}

// Sweeps re-bind the same pump run after run; a reader sees each run end
// with a Final frame.
func TestSweepRebindsObservePerRun(t *testing.T) {
	sc := quickSweep()
	pump, frames := collectingPump(10_000)
	sc.Observe = pump
	f, _ := workloads.ByName("HashTable")
	if _, err := sweep(sc, f, []SystemName{FlexTMEager}); err != nil {
		t.Fatal(err)
	}
	finals := 0
	for _, fr := range *frames {
		if fr.Final {
			finals++
		}
	}
	if want := len(sc.Threads); finals != want {
		t.Fatalf("saw %d final frames, want one per run (%d)", finals, want)
	}
}

// An observed HTMComparison publishes one Final frame per grid cell (its
// CGL baselines run unobserved) and computes the same plots as an
// unobserved one.
func TestHTMComparisonObserved(t *testing.T) {
	sc := quickSweep()
	plain, err := HTMComparison(sc)
	if err != nil {
		t.Fatal(err)
	}
	pump, frames := collectingPump(50_000)
	sc.Observe = pump
	observed, err := HTMComparison(sc)
	if err != nil {
		t.Fatal(err)
	}
	finals := 0
	for _, fr := range *frames {
		if fr.Final {
			finals++
		}
	}
	if want := 3 * 4 * len(sc.Threads); finals != want {
		t.Errorf("saw %d final frames, want one per cell (%d)", finals, want)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Errorf("observation changed the plots:\nplain    %+v\nobserved %+v", plain, observed)
	}
}

// TestUngovernedRunAfterGovernedCarriesNoGovSample: the pump binds its
// governor per run, so a pump re-bound for an ungoverned run after a
// governed one stamps no governor sample on its frames.
func TestUngovernedRunAfterGovernedCarriesNoGovSample(t *testing.T) {
	pump, frames := collectingPump(5_000)
	f, _ := workloads.ByName("RBTree")
	rc := RunConfig{
		System: FlexTMLazy, Workload: f, Threads: 2, OpsPerThread: 40,
		Machine: tmesi.DefaultConfig(), Observe: pump,
		Govern: governor.New(governor.Config{}),
	}
	if _, err := Run(rc); err != nil {
		t.Fatal(err)
	}
	if len(*frames) == 0 || (*frames)[0].Gov == nil {
		t.Fatal("governed run's frames carry no governor sample")
	}
	*frames = nil
	rc.Govern = nil
	if _, err := Run(rc); err != nil {
		t.Fatal(err)
	}
	if len(*frames) == 0 {
		t.Fatal("ungoverned run produced no frames")
	}
	for _, fr := range *frames {
		if fr.Gov != nil {
			t.Fatalf("ungoverned frame %d carries governor sample %+v", fr.Index, *fr.Gov)
		}
	}
}
