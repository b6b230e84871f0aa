// Acceptance tests against live runs, in an external package because
// harness transitively imports causal (via observatory).
package causal_test

import (
	"bytes"
	"testing"

	"flextm/internal/causal"
	"flextm/internal/governor"
	"flextm/internal/harness"
	"flextm/internal/tmesi"
	"flextm/internal/workloads"
)

// TestLivelockBlameNamesContendedLine is the tentpole acceptance criterion:
// on the dueling-livelock cell the causal report must name one of the
// duel's two contended lines as top blame, and the critical path must cover
// at least 60% of the makespan.
func TestLivelockBlameNamesContendedLine(t *testing.T) {
	g := governor.New(harness.GovernedLivelockConfig())
	_, out, err := harness.LivelockProbe(1, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := causal.Analyze(out.Recs, causal.Options{})
	if rep == nil || len(rep.Path) == 0 {
		t.Fatal("no critical path from the livelock probe")
	}
	tb := rep.TopBlame()
	if tb == nil {
		t.Fatal("no blame entries")
	}
	if tb.Line != uint64(out.LineA) && tb.Line != uint64(out.LineB) {
		t.Fatalf("top blame line 0x%x is neither duel line (0x%x / 0x%x)\nblame: %+v",
			tb.Line, out.LineA, out.LineB, rep.Blame)
	}
	if rep.Coverage < 0.6 {
		t.Fatalf("critical path covers %.1f%% of makespan, want >= 60%%", rep.Coverage*100)
	}
}

// TestLivelockReportByteStable: two same-seed probes must render a
// byte-identical causal JSON report (the CI smoke job's cmp relies on it).
func TestLivelockReportByteStable(t *testing.T) {
	render := func() []byte {
		g := governor.New(harness.GovernedLivelockConfig())
		_, out, err := harness.LivelockProbe(1, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := causal.Analyze(out.Recs, causal.Options{}).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed rendered different causal JSON (%d vs %d bytes)", len(a), len(b))
	}
}

// TestTracedRunIsBitIdenticalToUntraced: attaching the flight recorder (the
// causal tracer's only input) must not change what the run computes — the
// recording path spends no simulated time and draws no randomness.
func TestTracedRunIsBitIdenticalToUntraced(t *testing.T) {
	f, _ := workloads.ByName("RBTree")
	run := func(flightOn bool) harness.Result {
		res, err := harness.Run(harness.RunConfig{
			System: harness.FlexTMLazy, Workload: f, Threads: 4,
			OpsPerThread: 60, Machine: tmesi.DefaultConfig(), Verify: true,
			Flight: flightOn,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, traced := run(false), run(true)
	if plain.Commits != traced.Commits || plain.Aborts != traced.Aborts || plain.Cycles != traced.Cycles {
		t.Fatalf("tracing changed the run: commits %d/%d aborts %d/%d cycles %d/%d",
			plain.Commits, traced.Commits, plain.Aborts, traced.Aborts, plain.Cycles, traced.Cycles)
	}
	if plain.Machine != traced.Machine {
		t.Fatalf("tracing changed machine counters:\n%+v\nvs\n%+v", plain.Machine, traced.Machine)
	}
}
