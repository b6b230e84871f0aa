package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"flextm/internal/core"
	"flextm/internal/fault"
	"flextm/internal/flight"
	"flextm/internal/governor"
	"flextm/internal/observatory"
	"flextm/internal/stress"
	"flextm/internal/telemetry"
	"flextm/internal/tmesi"
	"flextm/internal/workloads"
)

// sideThreadGolden pins every run shape that drives simulated threads
// beside its workers — the observatory pump, the governor, the OS
// preemption storm, and the dueling-livelock probe — to the results the
// simulator produced before those drivers were shared.
const sideThreadGolden = "testdata/side_thread_runs.json"

// digest is a short, stable fingerprint of v's %+v rendering.
func digest(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return hex.EncodeToString(sum[:8])
}

type stressGolden struct {
	Schedule    string
	Commits     uint64
	Aborts      uint64
	Escalations uint64
	Injected    uint64
	Cycles      uint64
	GovLog      string
	RunErr      string
	OracleOk    bool
	Violations  int
}

// frameGolden is the part of a frame the side threads decide: when it was
// sampled, what it saw, and the governor's annotation.
type frameGolden struct {
	Index      int
	Start, End uint64
	Final      bool
	FlightGap  bool
	Recent     int
	Gov        observatory.GovSample
	Delta      telemetry.Snapshot
}

type probeGolden struct {
	Commits      uint64
	Aborts       uint64
	Escalations  uint64
	Dumped       bool
	Trips        uint64
	LineA, LineB uint64
	Recs         int
	RecsDigest   string
	Pathologies  map[string]uint64
	GovLog       string
	Frames       string
}

type runGolden struct {
	Commits     uint64
	Aborts      uint64
	Escalations uint64
	Cycles      uint64
	GovLog      string
	Frames      string
}

// framesGolden fingerprints a retained frame sequence.
func framesGolden(fs []*observatory.Frame) string {
	var out []frameGolden
	for _, f := range fs {
		fg := frameGolden{
			Index: f.Index, Start: f.Start, End: f.End, Final: f.Final,
			FlightGap: f.FlightGap, Recent: len(f.Recent), Delta: f.Delta,
		}
		if f.Gov != nil {
			fg.Gov = *f.Gov
		}
		out = append(out, fg)
	}
	return fmt.Sprintf("%d frames, %s", len(out), digest(out))
}

func probeOutcomeGolden(out LivelockOutcome, pathologies map[string]uint64) probeGolden {
	return probeGolden{
		Commits: out.Commits, Aborts: out.Aborts, Escalations: out.Escalations,
		Dumped: out.Dumped, Trips: out.Trips,
		LineA: uint64(out.LineA), LineB: uint64(out.LineB),
		Recs: len(out.Recs), RecsDigest: digest([]flight.Rec(out.Recs)),
		Pathologies: pathologies,
	}
}

// sideThreadRuns executes the pinned run set and renders it canonically.
func sideThreadRuns(t *testing.T) []byte {
	t.Helper()
	doc := map[string]any{}

	// Stress: both modes, the preempt storm, governed, governed + storm.
	noPreempt := func(rate float64) fault.Config {
		var fc fault.Config
		for cl := fault.Class(0); cl < fault.NumClasses; cl++ {
			if cl != fault.Preempt {
				fc = fc.WithRate(cl, rate)
			}
		}
		return fc
	}
	var cfgs []stress.Config
	for seed := uint64(1); seed <= 2; seed++ {
		for _, mode := range []core.Mode{core.Lazy, core.Eager} {
			c := stress.DefaultConfig(seed)
			c.Mode = mode
			c.TinyCache = true
			c.Faults = noPreempt(0.05)
			cfgs = append(cfgs, c)

			c = stress.DefaultConfig(seed)
			c.Mode = mode
			c.Faults = fault.Config{}.WithRate(fault.Preempt, 0.3)
			cfgs = append(cfgs, c)

			c = stress.DefaultConfig(seed)
			c.Mode = mode
			c.Governed = true
			c.Faults = noPreempt(0.05)
			cfgs = append(cfgs, c)

			c = stress.DefaultConfig(seed)
			c.Mode = mode
			c.Governed = true
			c.Faults = noPreempt(0.05).WithRate(fault.Preempt, 0.3)
			cfgs = append(cfgs, c)
		}
	}
	var stressRuns []stressGolden
	for _, c := range cfgs {
		o := stress.Run(c)
		stressRuns = append(stressRuns, stressGolden{
			Schedule: o.Schedule, Commits: o.Commits, Aborts: o.Aborts,
			Escalations: o.Escalations, Injected: o.Injected, Cycles: uint64(o.Cycles),
			GovLog: o.GovLog, RunErr: o.RunErr,
			OracleOk: o.Report.Ok(), Violations: o.Report.TotalViolations,
		})
	}
	doc["stress"] = stressRuns

	// The quick chaos campaign (paperbench -quick -fig chaos).
	doc["chaos"] = ChaosCampaign(smallChaosSpec())

	// The ungoverned probe, bare and under a pump at flextm -livelock's
	// sampling interval.
	rep, out, err := LivelockProbe(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	doc["livelock"] = probeOutcomeGolden(out, rep.PathologyCounts())
	pump, frames := collectingPump(1000)
	rep, out, err = LivelockProbe(1, nil, pump)
	if err != nil {
		t.Fatal(err)
	}
	pg := probeOutcomeGolden(out, rep.PathologyCounts())
	pg.Frames = framesGolden(*frames)
	doc["livelock_observed"] = pg

	// The governed probe, on its private pump and on a caller's.
	for _, key := range []string{"livelock_governed", "livelock_governed_observed"} {
		var pump *observatory.Pump
		frames := new([]*observatory.Frame)
		if key == "livelock_governed_observed" {
			pump, frames = collectingPump(GovernedLivelockInterval)
		}
		g := governor.New(GovernedLivelockConfig())
		rep, out, err := LivelockProbe(1, g, pump)
		if err != nil {
			t.Fatal(err)
		}
		pg := probeOutcomeGolden(out, rep.PathologyCounts())
		pg.GovLog = g.TransitionLog()
		pg.Frames = framesGolden(*frames)
		doc[key] = pg
	}

	// harness.Run with an observed and with a governed cell.
	f, ok := workloads.ByName("RBTree")
	if !ok {
		t.Fatal("no RBTree workload")
	}
	var runs []runGolden
	for _, governed := range []bool{false, true} {
		pump, frames := collectingPump(5000)
		rc := RunConfig{
			System: FlexTMLazy, Workload: f, Threads: 4, OpsPerThread: 200,
			Machine: tmesi.DefaultConfig(), Verify: true, Observe: pump,
		}
		var gov *governor.Governor
		if governed {
			gov = governor.New(governor.Config{RaiseAfter: 1, LowerAfter: 2, Cooldown: 1})
			rc.Govern = gov
			rc.Faults = fault.Config{Seed: 3}.WithRate(fault.SigFalsePos, 0.3)
		}
		res, err := Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		rg := runGolden{
			Commits: res.Commits, Aborts: res.Aborts, Escalations: res.Escalations,
			Cycles: uint64(res.Cycles), Frames: framesGolden(*frames),
		}
		if gov != nil {
			rg.GovLog = gov.TransitionLog()
		}
		runs = append(runs, rg)
	}
	doc["run"] = runs

	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestSideThreadRunsMatchParent: sharing the side-thread drivers (pump and
// governor loops, preempt storm, livelock duel) must leave every simulated
// result byte-identical — stress outcomes and transition logs, the chaos
// campaign, and both livelock probes with their record streams and frames.
func TestSideThreadRunsMatchParent(t *testing.T) {
	want, err := os.ReadFile(sideThreadGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := sideThreadRuns(t)
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("side-thread runs diverged from %s at line %d:\n got %s\nwant %s",
				sideThreadGolden, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("side-thread runs diverged from %s: %d lines, want %d", sideThreadGolden, len(gl), len(wl))
}
