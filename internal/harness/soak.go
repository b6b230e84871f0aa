package harness

import (
	"fmt"

	"flextm/internal/core"
	"flextm/internal/fault"
	"flextm/internal/sim"
	"flextm/internal/stress"
	"flextm/internal/sweepexec"
)

// SoakConfig parameterizes a governed chaos soak: Cells seed-derived stress
// schedules, each with a randomized fault cocktail, run twice — once
// governed, once as an ungoverned twin — all oracle- and
// conservation-checked. The campaign asserts the governor's convergence
// guarantee: every governed cell must end back at ladder level 0. The whole
// soak is a pure function of the config; running it twice yields identical
// results, transition logs included.
type SoakConfig struct {
	// Seed is the campaign's base seed; cell i derives its schedule from
	// Seed+i.
	Seed uint64
	// Cells is how many randomized schedules to run (<=0 selects 6).
	Cells int
	// Threads and Rounds size each cell (<=0 selects 4 and 30).
	Threads int
	Rounds  int
	// Parallel is the campaign's worker count (0 or 1 serial, < 0
	// GOMAXPROCS). Each cell derives its whole schedule from Seed+i, so
	// sharding cells cannot change any cell's outcome — transition logs
	// included — and results are gathered in serial cell order.
	Parallel int
}

// SoakCell is one (governed, ungoverned) pair's outcome.
type SoakCell struct {
	// Schedule replays the governed run: `flextm -oracle -schedule <s>`.
	Schedule string `json:"schedule"`

	Commits        uint64 `json:"commits"`
	Aborts         uint64 `json:"aborts"`
	Escalations    uint64 `json:"escalations"`
	Injected       uint64 `json:"faults_injected"`
	GovTransitions int    `json:"gov_transitions"`
	GovFinalLevel  int    `json:"gov_final_level"`
	GovLog         string `json:"gov_log"`

	// The ungoverned twin's A/B numbers.
	TwinCommits     uint64 `json:"twin_commits"`
	TwinAborts      uint64 `json:"twin_aborts"`
	TwinEscalations uint64 `json:"twin_escalations"`

	// Failures lists everything this cell broke; empty means the cell held
	// every invariant and the governor converged.
	Failures []string `json:"failures,omitempty"`
}

// SoakResult is a whole soak campaign.
type SoakResult struct {
	Cells    []SoakCell `json:"cells"`
	Failures int        `json:"failures"`
}

// Ok reports whether every cell held every invariant and converged.
func (r SoakResult) Ok() bool { return r.Failures == 0 }

// TransitionLog concatenates every cell's governor transition log, with a
// schedule header per cell — what the soak tests print on divergence.
func (r SoakResult) TransitionLog() string {
	var b []byte
	for _, c := range r.Cells {
		b = append(b, fmt.Sprintf("# %s (transitions=%d final-level=%d)\n",
			c.Schedule, c.GovTransitions, c.GovFinalLevel)...)
		b = append(b, c.GovLog...)
	}
	return string(b)
}

// soakFaultClasses is the cocktail pool: every machine-level class. Preempt
// is included — the preemption storm and the governor's mitigations then
// interleave in one deterministic schedule.
var soakFaultClasses = []fault.Class{
	fault.SpuriousAlert, fault.AlertLoss, fault.SigFalsePos,
	fault.OTStall, fault.CoherenceDelay, fault.CommitRace, fault.Preempt,
}

// Soak runs the campaign.
func Soak(sc SoakConfig) SoakResult {
	if sc.Cells <= 0 {
		sc.Cells = 6
	}
	if sc.Threads <= 0 {
		sc.Threads = 4
	}
	if sc.Rounds <= 0 {
		sc.Rounds = 30
	}
	var res SoakResult
	// No fn errors and no stop channel, so Map cannot fail.
	_ = sweepexec.Map(sweepexec.Exec{Workers: workers(sc.Parallel)}, sc.Cells,
		func(i int) (SoakCell, error) { return runSoakCell(sc, uint64(i)), nil },
		func(i int, cell SoakCell) error {
			res.Failures += len(cell.Failures)
			res.Cells = append(res.Cells, cell)
			return nil
		})
	return res
}

// runSoakCell draws one randomized schedule and runs the governed run plus
// its ungoverned twin.
func runSoakCell(sc SoakConfig, i uint64) SoakCell {
	// The cell's schedule is drawn from its own deterministic stream; the
	// stress seed is drawn from the same stream, so cells are independent.
	r := sim.NewRand(sc.Seed*0x9E3779B97F4A7C15 + i*0x2545F491 + 0x5A17)
	cfg := stress.Config{
		Seed:      r.Uint64(),
		Threads:   sc.Threads,
		Rounds:    sc.Rounds,
		OpsPerTxn: 1 + r.Intn(3),
		Accounts:  4 + r.Intn(5),
		Mode:      core.Mode(r.Intn(2)),
		TinyCache: r.Intn(2) == 0,
		Governed:  true,
	}
	// Two or three fault classes at 2-30% each: heavy enough that ladder
	// raises actually happen across the campaign, light enough that cells
	// stay CI-sized.
	for _, k := range []int{0, 1, 2}[:2+r.Intn(2)] {
		_ = k
		class := soakFaultClasses[r.Intn(len(soakFaultClasses))]
		rate := 0.02 + float64(r.Intn(29))/100
		cfg.Faults = cfg.Faults.WithRate(class, rate)
	}

	out := stress.Run(cfg)
	cell := SoakCell{
		Schedule:       out.Schedule,
		Commits:        out.Commits,
		Aborts:         out.Aborts,
		Escalations:    out.Escalations,
		Injected:       out.Injected,
		GovTransitions: out.GovTransitions,
		GovFinalLevel:  out.GovFinalLevel,
		GovLog:         out.GovLog,
	}
	fail := func(format string, args ...interface{}) {
		cell.Failures = append(cell.Failures, fmt.Sprintf(format, args...))
	}
	if out.Failed() {
		fail("governed: %s", runFailure(out))
	}
	if out.GovFinalLevel != 0 {
		fail("governor did not converge: final level %d", out.GovFinalLevel)
	}

	twinCfg := cfg
	twinCfg.Governed = false
	twin := stress.Run(twinCfg)
	cell.TwinCommits = twin.Commits
	cell.TwinAborts = twin.Aborts
	cell.TwinEscalations = twin.Escalations
	if twin.Failed() {
		fail("ungoverned twin: %s", runFailure(twin))
	}
	return cell
}

// runFailure renders a failed stress outcome's first cause.
func runFailure(o stress.Outcome) string {
	if o.RunErr != "" {
		return o.RunErr
	}
	if o.Report != nil && !o.Report.Ok() {
		return fmt.Sprintf("%d serializability violations", o.Report.TotalViolations)
	}
	return "unknown failure"
}
