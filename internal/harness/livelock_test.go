package harness

import (
	"reflect"
	"testing"

	"flextm/internal/conflictgraph"
	"flextm/internal/flightql"
)

// TestLivelockProbeDetectsAbortCycle is the profiler's acceptance test: a
// deliberately induced dueling livelock must (a) terminate through the
// watchdog's serialized fallback, (b) produce a watchdog flight dump, and
// (c) have its dump classified as an abort cycle by the conflict-graph
// analyzer.
func TestLivelockProbeDetectsAbortCycle(t *testing.T) {
	rep, out, err := LivelockProbe(1, nil, nil)
	if err != nil {
		t.Fatalf("LivelockProbe: %v", err)
	}
	if out.Commits == 0 {
		t.Fatal("probe made no progress")
	}
	// The duel must have happened: the watchdog dump necessarily contains
	// the consecutive aborts that tripped it.
	flightql.Assert(t, out.Recs, "filter kind == abort | expect count > 0")
	flightql.Assert(t, out.Recs, "filter kind == watchdog-trip | expect count >= 1")
	if out.Escalations == 0 {
		t.Fatal("probe never escalated — the duel resolved optimistically, watchdog untested")
	}
	if !out.Dumped {
		t.Fatal("watchdog trip did not produce a flight dump")
	}
	if !rep.Has(conflictgraph.AbortCycle) {
		t.Fatalf("dueling livelock not classified as abort cycle; pathologies: %+v\nper-core: %+v\nabort edges: %+v",
			rep.Pathologies, rep.PerCore, rep.AbortEdges)
	}
	// The cycle must name both duelists.
	for _, p := range rep.Pathologies {
		if p.Kind == conflictgraph.AbortCycle {
			if len(p.Cores) != 2 || p.Cores[0] != 0 || p.Cores[1] != 1 {
				t.Fatalf("cycle cores = %v, want [0 1]", p.Cores)
			}
		}
	}
}

// TestLivelockProbeIsDeterministic: same seed, same outcome — the probe is
// usable as a CI regression gate.
func TestLivelockProbeIsDeterministic(t *testing.T) {
	r1, o1, err1 := LivelockProbe(7, nil, nil)
	r2, o2, err2 := LivelockProbe(7, nil, nil)
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v / %v", err1, err2)
	}
	if !reflect.DeepEqual(o1, o2) {
		t.Fatalf("outcomes differ: %+v vs %+v", o1, o2)
	}
	if r1.Commits != r2.Commits || r1.Aborts != r2.Aborts || len(r1.Pathologies) != len(r2.Pathologies) {
		t.Fatalf("reports differ: %+v vs %+v", r1, r2)
	}
}
