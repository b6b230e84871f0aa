package harness

import (
	"fmt"

	"flextm/internal/cm"
	"flextm/internal/conflictgraph"
	"flextm/internal/core"
	"flextm/internal/fault"
	"flextm/internal/flight"
	"flextm/internal/governor"
	"flextm/internal/memory"
	"flextm/internal/observatory"
	"flextm/internal/oracle"
	"flextm/internal/sim"
	"flextm/internal/telemetry"
	"flextm/internal/tmapi"
	"flextm/internal/tmesi"
)

// LivelockOutcome summarizes a LivelockProbe run.
type LivelockOutcome struct {
	Commits     uint64
	Aborts      uint64
	Escalations uint64
	// Dumped is true when the report came from the watchdog's flight dump
	// (taken the moment the pathology was detected) rather than the
	// end-of-run rings.
	Dumped bool
	// Trips counts liveness-watchdog trips (telemetry; 0 when the run had
	// no registry attached).
	Trips uint64
	// Recs is the record window the report was computed over (the watchdog
	// dump when Dumped, else the end-of-run rings) — the input for causal
	// post-mortems on the probe.
	Recs []flight.Rec
	// LineA, LineB are the duel's two contended lines, so acceptance tests
	// can check blame attribution against ground truth.
	LineA, LineB memory.LineAddr
}

// LivelockProbe runs a deliberately pathological cell and profiles it: two
// threads under the Aggressive contention manager (always abort the enemy)
// write the same two lines in opposite order, with injected Bloom false
// positives keeping the conflict pressure on even between genuine overlaps.
// The symmetric kill-retry-kill exchange is the classic dueling livelock;
// FlexTM's obstruction-free optimistic path cannot break it, so the run
// makes progress only through the watchdog's serialized fallback.
//
// The probe attaches a flight recorder, captures the watchdog-triggered
// dump, and returns its conflict-graph analysis — which must classify the
// exchange as an abort cycle. It is both the acceptance test for the
// profiler ("does the analyzer detect a real livelock?") and a regression
// probe for the escalation path ("does the run terminate at all?").
func LivelockProbe(seed uint64) (*conflictgraph.Report, LivelockOutcome, error) {
	return livelockDuel(seed, nil, nil)
}

// ObservedLivelockProbe is LivelockProbe with the observation plane
// attached: pump, if non-nil, samples the duel as it runs, so a watcher
// (or the -watch acceptance test) sees the abort-cycle pathology flagged
// live — before the watchdog trips.
func ObservedLivelockProbe(seed uint64, pump *observatory.Pump) (*conflictgraph.Report, LivelockOutcome, error) {
	return livelockDuel(seed, nil, pump)
}

// GovernedLivelockInterval is the sampling/reaction period the governed
// probe runs at: fine enough that the governor reacts while the duel is
// still within the (loosened) watchdog budget.
const GovernedLivelockInterval sim.Time = 2000

// GovernedLivelockConfig is the governor configuration the governed probe
// (and flextm -livelock -govern) uses: a short ladder ending in forced
// serialization, reacting after a single unhealthy interval, with enough
// cooldown that each rung gets to prove itself before the next.
func GovernedLivelockConfig() governor.Config {
	return governor.Config{
		Ladder: []governor.Action{
			{Kind: governor.ActCM, CM: "Polka"},
			{Kind: governor.ActAdmit, Limit: 1},
			{Kind: governor.ActSerialize},
		},
		RaiseAfter: 1,
		LowerAfter: 2,
		Cooldown:   2,
	}
}

// GovernedLivelockProbe runs the dueling-livelock cell under the resilience
// governor: the same symmetric Aggressive duel with injected signature
// false positives, but with the watchdog budget loosened (24 consecutive
// aborts instead of 5) so the governor — reacting from the observation
// plane — gets to break the cycle first via its ladder (CM swap, then an
// admission cap of one). After the duel the observers keep sampling a calm
// tail of empty intervals long enough for the governor to walk fully back
// down to level 0, proving de-escalation.
//
// g must be a fresh, unbound governor (GovernedLivelockConfig is the tested
// configuration); pump may be nil, in which case a private pump and bus are
// created at GovernedLivelockInterval. The run is oracle-checked and
// conservation-checked like the ungoverned probe.
func GovernedLivelockProbe(seed uint64, g *governor.Governor, pump *observatory.Pump) (*conflictgraph.Report, LivelockOutcome, error) {
	return livelockDuel(seed, g, pump)
}

// livelockDuel is the one duel body behind the probes. Whether g is nil
// decides the watchdog budget, the observers' calm tail, and the report's
// input (the watchdog dump or the end-of-run rings).
func livelockDuel(seed uint64, g *governor.Governor, pump *observatory.Pump) (*conflictgraph.Report, LivelockOutcome, error) {
	workload, errPrefix := "LivelockDuel", "livelock probe"
	// Tight watchdog: the duel must trip it quickly, and escalation bounds
	// the run. Aggressive's randomized exponential backoff breaks the duel
	// after ~10 exchanges, so the consecutive-abort threshold must sit
	// below that for the trip (and hence the flight dump) to be reliable
	// across seeds. Commit retries stay bounded too in case the duel shifts
	// to commit-time refusals.
	budget := core.Liveness{MaxConsecAborts: 5, MaxStallCycles: 500_000, MaxCommitRetries: 32}
	calmTail := 0
	if g != nil {
		workload, errPrefix = "GovernedLivelockDuel", "governed livelock probe"
		// Loose watchdog: the governor must win the race. The duel produces
		// roughly one abort every ~700 cycles, and the governor's first rung
		// lands within one interval (2000 cycles), so a 24-abort budget
		// leaves the watchdog as a genuine backstop rather than the
		// resolution path.
		budget = core.Liveness{MaxConsecAborts: 24, MaxStallCycles: 2_000_000, MaxCommitRetries: 64}
		// Both observers run a calm tail of empty intervals past the duel's
		// end: those classify healthy, so every rung still raised when the
		// duel finishes is guaranteed to unwind before the run ends
		// (structural de-escalation, not an accident of the duel schedule).
		// 24 intervals covers the probe ladder's three rungs at LowerAfter 2
		// + cooldown 2, with slack.
		calmTail = 24
	}

	cfg := tmesi.DefaultConfig()
	cfg.Cores = 2
	sys := tmesi.New(cfg)
	fl := flight.New(cfg.Cores, 0)
	sys.SetFlight(fl)
	// Telemetry is always attached: the live classifier needs the registry
	// when a pump is bound, and the outcome's Trips count must not depend on
	// whether the run was observed. Counters are passive, so the schedule is
	// unchanged either way.
	sys.SetTelemetry(telemetry.New(cfg.Cores))
	inj := fault.NewInjector(fault.Config{Seed: seed}.WithRate(fault.SigFalsePos, 0.25))
	sys.SetFaultInjector(inj)

	rt := core.New(sys, core.Eager, cm.Aggressive{})
	// The probe runs oracle-checked: a livelock broken only by escalation is
	// exactly the kind of run where a serialization bug would hide.
	orc := oracle.NewRecorder()
	rt.SetOracle(orc)
	rt.SetLiveness(budget)

	var dumped []flight.Rec
	rt.OnFlightDump = func(c int, recs []flight.Rec) { dumped = recs }

	if g != nil {
		if pump == nil {
			pump = observatory.NewPump(observatory.Config{
				Interval: GovernedLivelockInterval, Bus: observatory.NewBus(),
			})
		}
		g.Bind(rt, 2)
		pump.SetAnnotator(g.Annotate)
	}

	lineA := sys.Alloc().Alloc(memory.LineWords)
	lineB := sys.Alloc().Alloc(memory.LineWords)
	orc.SetInitial(lineA, 0)
	orc.SetInitial(lineB, 0)

	const rounds = 40
	e := sim.NewEngine()
	var duelists []*sim.Ctx
	for t := 0; t < 2; t++ {
		id := t
		duelists = append(duelists, e.Spawn(fmt.Sprintf("duel-%d", id), 0, func(ctx *sim.Ctx) {
			th := rt.BindThread(ctx, id)
			first, second := lineA, lineB
			if id == 1 {
				first, second = lineB, lineA
			}
			for n := 0; n < rounds; n++ {
				th.Atomic(func(tx tmapi.Txn) {
					tx.Store(first, tx.Load(first)+1)
					th.Work(200) // hold the first line long enough to overlap
					tx.Store(second, tx.Load(second)+1)
					// Vulnerability window: keep the transaction open after
					// the second store so the freshly killed enemy has time
					// to restart and retaliate before we reach CAS-Commit.
					// This is what turns a one-sided kill into a duel.
					th.Work(200)
				})
			}
		}))
	}
	running := live(duelists)
	if pump != nil {
		pump.Bind(sys.Telemetry(), fl, observatory.Meta{
			System: string(FlexTMEager), Workload: workload,
			Threads: 2, Cores: cfg.Cores,
		})
		pump.Spawn(e, running, calmTail)
	}
	if g != nil {
		g.Spawn(e, pump, running, calmTail)
	}
	if blocked := e.Run(); blocked != 0 {
		return nil, LivelockOutcome{}, fmt.Errorf("%s: %d threads blocked (escalation failed)", errPrefix, blocked)
	}

	st := rt.Stats()
	out := LivelockOutcome{
		Commits:     st.Commits,
		Aborts:      st.Aborts,
		Escalations: st.Escalations,
		Dumped:      dumped != nil,
		Trips:       sys.Telemetry().Snapshot().Total(telemetry.CtrWatchdogTrip),
		Recs:        dumped,
		LineA:       lineA.Line(),
		LineB:       lineB.Line(),
	}
	// The governed probe's watchdog is a backstop, so its report reads the
	// end-of-run rings even when a dump was taken.
	if g != nil || dumped == nil {
		out.Recs = fl.Snapshot()
	}
	rep := conflictgraph.Analyze(out.Recs, conflictgraph.Options{Cores: cfg.Cores})
	if got, want := sys.ReadWordRaw(lineA)+sys.ReadWordRaw(lineB), uint64(2*2*rounds); got != want {
		return rep, out, fmt.Errorf("%s: line sum = %d, want %d", errPrefix, got, want)
	}
	if orep := oracle.Check(orc.History(), oracle.Options{}); !orep.Ok() {
		return rep, out, fmt.Errorf("%s: %d serializability violations ([%s] %s)",
			errPrefix, orep.TotalViolations, orep.Violations[0].Kind, orep.Violations[0].Summary)
	}
	return rep, out, nil
}
