package harness

import (
	"reflect"
	"strings"
	"testing"

	"flextm/internal/flightql"
	"flextm/internal/governor"
)

// TestGovernedLivelockProbeResolvesViaLadder is the tentpole acceptance
// test: the same symmetric duel that trips the ungoverned probe's watchdog
// must, under the governor, be resolved by a ladder step — a CM swap or
// admission control, never the serialize rung or the watchdog — and then
// fully de-escalate once the duel ends.
func TestGovernedLivelockProbeResolvesViaLadder(t *testing.T) {
	g := governor.New(GovernedLivelockConfig())
	_, out, err := LivelockProbe(1, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The probe's invariants, stated as queries over the end-of-run flight
	// stream (the rings are deep enough that nothing wrapped): no watchdog
	// trip, no serialize-rung escalation, and both duelists complete every
	// round — 2 threads x 40 rounds.
	flightql.Assert(t, out.Recs, "filter kind == watchdog-trip | expect count == 0")
	flightql.Assert(t, out.Recs, "filter kind == escalate | expect count == 0")
	flightql.Assert(t, out.Recs, "filter kind == commit | expect count == 80")
	trs := g.Transitions()
	if len(trs) < 2 {
		t.Fatalf("governor recorded %d transitions, want at least a raise and a lower", len(trs))
	}
	resolved := false
	for _, tr := range trs {
		if tr.To > tr.From && (strings.HasPrefix(tr.Action, "cm:") || strings.HasPrefix(tr.Action, "admit:")) {
			resolved = true
		}
	}
	if !resolved {
		t.Fatalf("no raise applied a CM swap or admission control:\n%s", g.TransitionLog())
	}
	if g.Level() != 0 {
		t.Fatalf("final ladder level = %d, want 0 (full de-escalation)\n%s", g.Level(), g.TransitionLog())
	}
	if g.LastState() != governor.Healthy {
		t.Fatalf("final state = %v, want healthy", g.LastState())
	}
}

// TestGovernedLivelockTransitionLogIsDeterministic: a governed run is a
// pure function of (seed, config) — two runs with the same seed must emit
// bit-identical transition logs and outcomes, fault injection included.
func TestGovernedLivelockTransitionLogIsDeterministic(t *testing.T) {
	run := func() (string, LivelockOutcome) {
		g := governor.New(GovernedLivelockConfig())
		_, out, err := LivelockProbe(1, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		return g.TransitionLog(), out
	}
	log1, out1 := run()
	log2, out2 := run()
	if log1 == "" {
		t.Fatal("governor never transitioned (probe misconfigured?)")
	}
	if log1 != log2 {
		t.Fatalf("same seed produced different transition logs:\n--- run 1\n%s--- run 2\n%s", log1, log2)
	}
	if !reflect.DeepEqual(out1.Recs, out2.Recs) {
		t.Fatalf("same seed produced different flight-record streams (%d vs %d records)", len(out1.Recs), len(out2.Recs))
	}
	out1.Recs, out2.Recs = nil, nil
	if !reflect.DeepEqual(out1, out2) {
		t.Fatalf("same seed produced different outcomes: %+v vs %+v", out1, out2)
	}
}

// TestUngovernedLivelockStillTrips pins the contrast: without the governor
// the tight-watchdog probe resolves the duel only by tripping into the
// serialized fallback.
func TestUngovernedLivelockStillTrips(t *testing.T) {
	_, out, err := LivelockProbe(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trips == 0 || out.Escalations == 0 {
		t.Fatalf("ungoverned probe: trips=%d escalations=%d, want both > 0", out.Trips, out.Escalations)
	}
}
