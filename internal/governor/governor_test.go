package governor

import (
	"strings"
	"testing"

	"flextm/internal/cm"
	"flextm/internal/core"
	"flextm/internal/observatory"
	"flextm/internal/telemetry"
	"flextm/internal/tmesi"
)

// frame builds a minimal synthetic frame: one interval with the given
// per-interval counter deltas on a single core.
func frame(idx int, set func(ctr *[telemetry.NumCounters]uint64)) *observatory.Frame {
	f := &observatory.Frame{
		Index: idx,
		Start: uint64(idx) * 1000,
		End:   uint64(idx+1) * 1000,
		Delta: telemetry.Snapshot{Cores: make([]telemetry.CoreSnapshot, 1)},
	}
	if set != nil {
		set(&f.Delta.Cores[0].Counters)
	}
	return f
}

func healthyFrame(idx int) *observatory.Frame {
	return frame(idx, func(c *[telemetry.NumCounters]uint64) {
		c[telemetry.CtrTxnCommits] = 10
	})
}

func contendedFrame(idx int) *observatory.Frame {
	return frame(idx, func(c *[telemetry.NumCounters]uint64) {
		c[telemetry.CtrTxnCommits] = 2
		c[telemetry.CtrTxnAborts] = 8
	})
}

func TestLadderSpecRoundTrips(t *testing.T) {
	spec := LadderSpec(DefaultLadder())
	ladder, err := ParseLadder(spec)
	if err != nil {
		t.Fatalf("ParseLadder(%q): %v", spec, err)
	}
	if got := LadderSpec(ladder); got != spec {
		t.Fatalf("round trip changed the spec: %q -> %q", spec, got)
	}
	// Custom ladder with every rung type.
	const custom = "cm:Karma,backoff:2,admit:3,sig:8,serialize"
	ladder, err = ParseLadder(custom)
	if err != nil {
		t.Fatalf("ParseLadder(%q): %v", custom, err)
	}
	if got := LadderSpec(ladder); got != custom {
		t.Fatalf("custom round trip: %q -> %q", custom, got)
	}
}

// TestDefaultSigScaleRoundTrips: a programmatic sig rung whose Scale is
// left at 0 or 1 widens 4x, and its spec must name that scale, so that
// LadderSpec parses back to rungs that widen the same geometry.
func TestDefaultSigScaleRoundTrips(t *testing.T) {
	ladder := []Action{{Kind: ActSigWiden}, {Kind: ActSigWiden, Scale: 1}, {Kind: ActSigWiden, Scale: 8}}
	spec := LadderSpec(ladder)
	if spec != "sig:4,sig:4,sig:8" {
		t.Fatalf("LadderSpec = %q, want sig:4,sig:4,sig:8", spec)
	}
	parsed, err := ParseLadder(spec)
	if err != nil {
		t.Fatalf("ParseLadder(%q): %v", spec, err)
	}
	widened := func(a Action) int {
		g, rt := boundGovernor(t, Config{})
		rt.System().SetTelemetry(telemetry.New(rt.System().Config().Cores)) // rehash needs audit mode
		before := rt.System().Config().Sig.Bits
		if u := g.apply(a); !u.sigApplied {
			t.Fatalf("%+v: widening refused", a)
		}
		return rt.System().Config().Sig.Bits / before
	}
	for i, a := range ladder {
		if got, want := widened(parsed[i]), widened(a); got != want {
			t.Errorf("rung %d: %q widens %dx, %+v widens %dx", i, parsed[i].Spec(), got, a, want)
		}
	}
}

func TestParseLadderRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"",                // empty
		"cm:NoSuchPolicy", // unknown manager
		"backoff:0",       // shift must be >= 1
		"backoff:x",
		"admit:0", // cap must be >= 1
		"sig:1",   // scale must be >= 2
		"sig:3",   // scale must be a power of two
		"sig:12",
		"serialize:1",
		"flood:3", // unknown rung
	} {
		if _, err := ParseLadder(spec); err == nil {
			t.Errorf("ParseLadder(%q): want error, got nil", spec)
		}
	}
}

func TestClassifyThresholds(t *testing.T) {
	g := New(Config{})
	cases := []struct {
		name string
		f    *observatory.Frame
		want State
	}{
		{"healthy", healthyFrame(0), Healthy},
		{"contended", contendedFrame(0), Contended},
		{"sig-saturated", frame(0, func(c *[telemetry.NumCounters]uint64) {
			c[telemetry.CtrTxnCommits] = 10
			c[telemetry.CtrSigFalsePos] = 10
			c[telemetry.CtrSigTrueNeg] = 90
		}), SigSaturated},
		{"sig-below-min-tests", frame(0, func(c *[telemetry.NumCounters]uint64) {
			c[telemetry.CtrTxnCommits] = 10
			c[telemetry.CtrSigFalsePos] = 4 // 100% FP but only 4 tests
		}), Healthy},
		{"overflow-thrashing", frame(0, func(c *[telemetry.NumCounters]uint64) {
			c[telemetry.CtrTxnCommits] = 2
			c[telemetry.CtrOTSpill] = 64
		}), OverflowThrashing},
		{"calm-interval", frame(0, nil), Healthy},
		{"nil-frame", nil, Healthy},
	}
	for _, tc := range cases {
		if got := g.Classify(tc.f); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// boundGovernor returns a governor bound to a real (idle) runtime so
// apply/revert have knobs to turn.
func boundGovernor(t *testing.T, cfg Config) (*Governor, *core.Runtime) {
	t.Helper()
	sys := tmesi.New(tmesi.DefaultConfig())
	rt := core.New(sys, core.Eager, cm.Aggressive{})
	g := New(cfg)
	g.Bind(rt, 4)
	return g, rt
}

func TestHysteresisRaisesAndLowers(t *testing.T) {
	g, rt := boundGovernor(t, Config{
		Ladder:     []Action{{Kind: ActCM, CM: "Polka"}, {Kind: ActSerialize}},
		RaiseAfter: 2, LowerAfter: 2, Cooldown: 0,
	})
	idx := 0
	next := func(f func(int) *observatory.Frame) { g.Observe(f(idx)); idx++ }

	next(contendedFrame)
	if g.Level() != 0 {
		t.Fatalf("one unhealthy interval raised the level to %d", g.Level())
	}
	next(contendedFrame)
	if g.Level() != 1 {
		t.Fatalf("level after 2 unhealthy intervals = %d, want 1", g.Level())
	}
	if _, ok := rt.CM().(*cm.Polka); !ok {
		t.Fatalf("rung 1 did not swap the CM: %T", rt.CM())
	}
	next(contendedFrame)
	next(contendedFrame)
	if g.Level() != 2 || !rt.ForceSerial() {
		t.Fatalf("level=%d forceSerial=%v after 4 unhealthy, want 2/true", g.Level(), rt.ForceSerial())
	}
	// A healthy interval resets the unhealthy streak and vice versa.
	next(healthyFrame)
	next(contendedFrame)
	next(healthyFrame)
	if g.Level() != 2 {
		t.Fatalf("alternating intervals moved the level to %d", g.Level())
	}
	next(healthyFrame)
	if g.Level() != 1 || rt.ForceSerial() {
		t.Fatalf("level=%d forceSerial=%v after healthy streak, want 1/false", g.Level(), rt.ForceSerial())
	}
	next(healthyFrame)
	next(healthyFrame)
	if g.Level() != 0 {
		t.Fatalf("level=%d after full healthy run-out, want 0", g.Level())
	}
	if _, ok := rt.CM().(cm.Aggressive); !ok {
		t.Fatalf("lowering did not restore the original CM: %T", rt.CM())
	}
	if len(g.Transitions()) != 4 {
		t.Fatalf("transitions = %d, want 4", len(g.Transitions()))
	}
	log := g.TransitionLog()
	for _, want := range []string{"level 0->1", "level 1->2", "level 2->1", "level 1->0", "action=cm:Polka", "action=serialize"} {
		if !strings.Contains(log, want) {
			t.Errorf("transition log missing %q:\n%s", want, log)
		}
	}
}

func TestCooldownHoldsTheLadderStill(t *testing.T) {
	g, _ := boundGovernor(t, Config{
		Ladder:     []Action{{Kind: ActCM, CM: "Polka"}, {Kind: ActSerialize}},
		RaiseAfter: 1, LowerAfter: 1, Cooldown: 3,
	})
	g.Observe(contendedFrame(0))
	if g.Level() != 1 {
		t.Fatalf("level = %d after first unhealthy interval (RaiseAfter=1), want 1", g.Level())
	}
	// Three cooldown intervals: unhealthy streak keeps building but no move.
	for i := 1; i <= 3; i++ {
		g.Observe(contendedFrame(i))
		if g.Level() != 1 {
			t.Fatalf("level moved to %d during cooldown (frame %d)", g.Level(), i)
		}
	}
	g.Observe(contendedFrame(4))
	if g.Level() != 2 {
		t.Fatalf("level = %d after cooldown expired, want 2", g.Level())
	}
}

func TestObserveDedupsRepublishedFrames(t *testing.T) {
	g, _ := boundGovernor(t, Config{RaiseAfter: 2, Cooldown: 0})
	f := contendedFrame(0)
	// The bus republishes the latest frame on every read; observing the same
	// index twice must count as one interval.
	g.Observe(f)
	g.Observe(f)
	if g.Level() != 0 {
		t.Fatalf("duplicate frame observations raised the level to %d", g.Level())
	}
	g.Observe(contendedFrame(1))
	if g.Level() != 1 {
		t.Fatalf("level = %d after two distinct unhealthy frames, want 1", g.Level())
	}
}

func TestBackoffAndAdmitRungsApplyAndRevert(t *testing.T) {
	g, rt := boundGovernor(t, Config{
		Ladder:     []Action{{Kind: ActBackoff, Shift: 3}, {Kind: ActAdmit}},
		RaiseAfter: 1, LowerAfter: 1, Cooldown: 0,
	})
	g.Observe(contendedFrame(0))
	if rt.BackoffBoost() != 3 {
		t.Fatalf("backoff boost = %d, want 3", rt.BackoffBoost())
	}
	g.Observe(contendedFrame(1))
	// Default admission cap: threads/2 (bound with 4 threads).
	if rt.AdmitLimit() != 2 {
		t.Fatalf("admit limit = %d, want 2", rt.AdmitLimit())
	}
	g.Observe(healthyFrame(2))
	if rt.AdmitLimit() != 0 {
		t.Fatalf("admit limit = %d after lower, want 0", rt.AdmitLimit())
	}
	g.Observe(healthyFrame(3))
	if rt.BackoffBoost() != 0 {
		t.Fatalf("backoff boost = %d after lower, want 0", rt.BackoffBoost())
	}
}

func TestNilGovernorIsInert(t *testing.T) {
	var g *Governor
	if g.Level() != 0 || g.LastState() != Healthy || g.Transitions() != nil || g.TransitionLog() != "" {
		t.Fatal("nil governor accessors are not inert")
	}
	g.Observe(contendedFrame(0)) // must not panic
	g.Annotate(&observatory.Frame{})
}

func TestAnnotateFillsGovSample(t *testing.T) {
	g, _ := boundGovernor(t, Config{RaiseAfter: 1, Cooldown: 0})
	g.Observe(contendedFrame(0))
	f := healthyFrame(1)
	g.Annotate(f)
	if f.Gov == nil {
		t.Fatal("Annotate left Gov nil")
	}
	if f.Gov.Level != 1 || f.Gov.Rungs != len(DefaultLadder()) || f.Gov.Transitions != 1 {
		t.Fatalf("GovSample = %+v", *f.Gov)
	}
	if f.Gov.State != "contended" {
		t.Fatalf("GovSample.State = %q, want contended", f.Gov.State)
	}
}
