package harness

import (
	"fmt"

	"flextm/internal/cache"
	"flextm/internal/cm"
	"flextm/internal/conflictgraph"
	"flextm/internal/core"
	"flextm/internal/fault"
	"flextm/internal/memory"
	"flextm/internal/rig"
	"flextm/internal/sim"
	"flextm/internal/stress"
	"flextm/internal/sweepexec"
	"flextm/internal/telemetry"
	"flextm/internal/tmapi"
	"flextm/internal/tmesi"
)

// ChaosSpec parameterizes a fault-injection campaign: each (class, rate,
// mode) cell runs the conservation workload on a tiny machine with that
// fault class injected, under a tight liveness policy, and checks the
// chaos invariants. The campaign covers every fault class in both
// conflict-management modes. The whole campaign is a pure function of the
// spec: identical specs produce bit-identical ChaosResults.
type ChaosSpec struct {
	Rates []float64
	// Threads is both the software thread count and the core count.
	Threads int
	// Rounds is the per-thread operation count.
	Rounds int
	Seed   uint64
}

// chaosAccounts is the number of shared cells of the conservation workload;
// chaosInitial their starting value.
const (
	chaosAccounts = 10
	chaosInitial  = 100
)

// DefaultChaosSpec runs every cell at a low and at the acceptance (10%)
// rate.
func DefaultChaosSpec() ChaosSpec {
	return ChaosSpec{
		Rates:   []float64{0.02, 0.10},
		Threads: 7,
		Rounds:  40,
		Seed:    1,
	}
}

// ChaosCell is the outcome of one (class, rate, mode) run.
type ChaosCell struct {
	Class string  `json:"class"`
	Rate  float64 `json:"rate"`
	Mode  string  `json:"mode"`

	Commits       uint64 `json:"commits"`
	Aborts        uint64 `json:"aborts"`
	Escalations   uint64 `json:"escalations"`
	WatchdogTrips uint64 `json:"watchdog_trips"`
	Injected      uint64 `json:"faults_injected"`

	Cycles sim.Time `json:"cycles"`
	// Violations lists every invariant the cell broke; empty means the
	// protocol's backstops held.
	Violations []string `json:"violations,omitempty"`
	// Pathologies counts contention pathologies detected by the
	// conflict-graph analysis of the cell's flight-recorder history;
	// present only for cells that tripped the watchdog or broke an
	// invariant (the interesting post-mortems).
	Pathologies map[string]uint64 `json:"pathologies,omitempty"`
}

// ChaosResult is a whole campaign.
type ChaosResult struct {
	Cells      []ChaosCell `json:"cells"`
	Violations int         `json:"violations"`
}

// Ok reports whether every cell held every invariant.
func (r ChaosResult) Ok() bool { return r.Violations == 0 }

// ChaosCampaign runs the full sweep on sweepexec's default pool. Cells
// build their own machine and derive their own fault schedule, so sharding
// them cannot change any cell's outcome, and results are gathered in the
// serial cell order.
func ChaosCampaign(spec ChaosSpec) ChaosResult {
	type cell struct {
		class fault.Class
		rate  float64
		mode  core.Mode
	}
	var cells []cell
	for _, class := range fault.Classes() {
		for _, rate := range spec.Rates {
			for _, mode := range []core.Mode{core.Eager, core.Lazy} {
				cells = append(cells, cell{class, rate, mode})
			}
		}
	}
	var res ChaosResult
	// No fn errors and no stop channel, so Map cannot fail.
	_ = sweepexec.Map(sweepexec.Exec{}, len(cells),
		func(i int) (ChaosCell, error) {
			return runChaosCell(spec, cells[i].class, cells[i].rate, cells[i].mode), nil
		},
		func(i int, c ChaosCell) error {
			res.Violations += len(c.Violations)
			res.Cells = append(res.Cells, c)
			return nil
		})
	return res
}

// runChaosCell executes one cell of the campaign.
func runChaosCell(spec ChaosSpec, class fault.Class, rate float64, mode core.Mode) ChaosCell {
	cell := ChaosCell{Class: class.String(), Rate: rate, Mode: mode.String()}
	fail := func(format string, args ...interface{}) {
		cell.Violations = append(cell.Violations, fmt.Sprintf(format, args...))
	}

	cfg := tmesi.DefaultConfig()
	cfg.Cores = spec.Threads
	// Tiny L1: forces evictions, alert-line pressure, and OT walks, so
	// every injection site sees traffic. Every cell runs oracle-checked:
	// the fault campaign is exactly where serializability violations would
	// hide. The class is mixed into the fault seed so cells draw
	// independent schedules even for the same spec seed. The preemption
	// storm ticks every stress.DefaultQuantum cycles.
	cfg.L1 = cache.Config{Sets: 4, Ways: 2, VictimSize: 2}
	r, err := rig.New(rig.Spec{
		Machine: cfg, Metrics: true, Flight: true, Oracle: true,
		Faults:  fault.Config{Seed: spec.Seed*0x9E37 + uint64(class) + 1}.WithRate(class, rate),
		Quantum: stress.DefaultQuantum,
	})
	if err != nil {
		fail("%v", err)
		return cell
	}
	sys := r.Sys
	rt := core.New(sys, mode, cm.NewPolka())
	// The watchdog policy under test, tight enough that fault storms
	// actually trip it.
	rt.SetLiveness(core.Liveness{MaxConsecAborts: 8, MaxStallCycles: 2_000_000, MaxCommitRetries: 16})
	r.SetRuntime(rt)
	account := r.Lines(chaosAccounts, chaosInitial)
	private := r.Lines(spec.Threads, 0)

	var badSum bool
	privWrites := make([]uint64, spec.Threads)
	for ti := 0; ti < spec.Threads; ti++ {
		id := ti
		r.Spawn(fmt.Sprintf("chaos-%d", id), func(ctx *sim.Ctx) {
			th := rt.Bind(ctx, id)
			rnd := sim.NewRand(spec.Seed*1000 + uint64(id))
			for n := 0; n < spec.Rounds; n++ {
				chaosOp(th, rnd, account, private[id], &badSum, &privWrites[id])
			}
		})
	}
	if err := r.Run(); err != nil {
		fail("%v: liveness budget exceeded without escalation", err)
	}

	// Invariant 1: conservation of the shared total.
	var total uint64
	for _, a := range account {
		total += sys.ReadWordRaw(a)
	}
	if want := uint64(len(account)) * chaosInitial; total != want {
		fail("conservation: total = %d, want %d", total, want)
	}
	// Invariant 2: every committed read-only audit saw a consistent sum.
	if badSum {
		fail("consistency: a committed read-only audit observed a wrong total")
	}
	// Invariant 3: private slots hold exactly their owner's last write.
	for id, p := range private {
		if got := sys.ReadWordRaw(p); got != privWrites[id] {
			fail("isolation: private slot %d = %d, want %d", id, got, privWrites[id])
		}
	}
	// Invariant 4: the committed history is serializable (oracle verdict).
	orep := r.Oracle().Check()
	for _, v := range orep.Violations {
		fail("serializability: [%s] %s", v.Kind, v.Summary)
	}
	if extra := orep.TotalViolations - len(orep.Violations); extra > 0 {
		fail("serializability: %d further violations beyond the witness cap", extra)
	}

	st := rt.Stats()
	snap := sys.Telemetry().Snapshot()
	cell.Commits = st.Commits
	cell.Aborts = st.Aborts
	cell.Escalations = st.Escalations
	cell.WatchdogTrips = snap.Total(telemetry.CtrWatchdogTrip)
	cell.Injected = r.Injector().Injected()
	cell.Cycles = r.Engine.MaxTime()
	if cell.WatchdogTrips > 0 || len(cell.Violations) > 0 {
		// The run floundered: explain it. The analysis reads the rings
		// non-destructively and the campaign is deterministic, so the
		// summary is reproducible.
		rep := conflictgraph.Analyze(sys.Flight().Snapshot(),
			conflictgraph.Options{Cores: spec.Threads})
		if counts := rep.PathologyCounts(); len(counts) > 0 {
			cell.Pathologies = counts
		}
	}
	return cell
}

// chaosOp performs one operation of the conservation workload: transfers,
// read-only audits, nested transfers with user aborts, plain private
// accesses, wide net-zero updates that overflow the L1, and compute.
func chaosOp(th tmapi.Thread, r *sim.Rand, account []memory.Addr, priv memory.Addr, badSum *bool, privWrites *uint64) {
	cells := len(account)
	switch r.Intn(6) {
	case 0: // transfer
		from, to := r.Intn(cells), r.Intn(cells)
		amt := uint64(r.Intn(5))
		th.Atomic(func(tx tmapi.Txn) {
			f := tx.Load(account[from])
			if f < amt {
				return
			}
			tx.Store(account[from], f-amt)
			tx.Store(account[to], tx.Load(account[to])+amt)
		})
	case 1: // read-only audit
		var total uint64
		th.Atomic(func(tx tmapi.Txn) {
			total = 0
			for i := 0; i < cells; i++ {
				total += tx.Load(account[i])
			}
		})
		if total != uint64(cells)*chaosInitial {
			*badSum = true
		}
	case 2: // nested transfer with occasional user abort
		from, to := r.Intn(cells), r.Intn(cells)
		skip := r.Intn(4) == 0
		th.Atomic(func(tx tmapi.Txn) {
			f := tx.Load(account[from])
			if f == 0 {
				return
			}
			tx.Store(account[from], f-1)
			th.Atomic(func(inner tmapi.Txn) {
				if skip {
					skip = false
					inner.Abort()
				}
				inner.Store(account[to], inner.Load(account[to])+1)
			})
		})
	case 3: // plain private access (strong isolation side)
		th.Store(priv, th.Load(priv)+1)
		*privWrites++
	case 4: // wide net-zero ripple: overflows the tiny L1 into the OT
		th.Atomic(func(tx tmapi.Txn) {
			for i := 0; i < cells; i++ {
				tx.Store(account[i], tx.Load(account[i])+1)
			}
			for i := 0; i < cells; i++ {
				tx.Store(account[i], tx.Load(account[i])-1)
			}
		})
	default: // compute
		th.Work(sim.Time(r.Intn(500)))
	}
}
