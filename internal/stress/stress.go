// Package stress is a seed-driven schedule explorer for the FlexTM
// protocol, built on the serializability oracle (internal/oracle). Each
// seed deterministically generates a small multi-thread program — transfer
// races, opposite-order duels, read-only scans, write-skew pairs, wide
// updates that evict TMI lines into the overflow table at commit, and
// non-transactional probes — and a fault schedule (internal/fault), runs it
// through the deterministic sim engine, and checks the committed history
// for serializability.
//
// Because the whole run is a pure function of its Config, a failing seed is
// a replayable artifact: Config.Schedule() renders it as a compact string
// (`flextm -oracle -schedule <s>` replays it), and Shrink greedily reduces
// a failing configuration — fewer threads, rounds, accounts, fault classes
// — while it keeps failing, yielding a minimal witness schedule to go with
// the oracle's minimal witness history.
package stress

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"flextm/internal/cache"
	"flextm/internal/cm"
	"flextm/internal/core"
	"flextm/internal/fault"
	"flextm/internal/flight"
	"flextm/internal/governor"
	"flextm/internal/memory"
	"flextm/internal/observatory"
	"flextm/internal/oracle"
	"flextm/internal/osmodel"
	"flextm/internal/sim"
	"flextm/internal/sweepexec"
	"flextm/internal/telemetry"
	"flextm/internal/tmapi"
	"flextm/internal/tmesi"
)

// Config fixes one stress run completely: the same Config reproduces the
// same program, schedule, fault sequence, and verdict, bit for bit.
type Config struct {
	Seed      uint64
	Threads   int
	Rounds    int // operations per thread
	OpsPerTxn int // scales scan widths and hold times inside transactions
	Accounts  int // shared conservation cells (one line each)
	Mode      core.Mode
	// Faults carries per-class injection rates; the injector's seed is
	// derived from Seed, so Faults.Seed is ignored.
	Faults fault.Config
	// TinyCache shrinks the L1 so speculative (TMI) lines are evicted into
	// the overflow table mid-transaction — the commit-time OT walk races
	// the issue asks the explorer to exercise.
	TinyCache bool
	// BreakWR disables the commit-time abort of W-R-named enemies
	// (core.SetWRAborts(false)): the intentionally broken protocol variant
	// the oracle must catch.
	BreakWR bool
	// Quantum is the preempt-storm tick, used when Faults enables
	// fault.Preempt (0 selects DefaultQuantum).
	Quantum sim.Time
	// MaxViolations caps materialized oracle witnesses (0 = oracle default).
	MaxViolations int
	// Governed attaches the resilience governor (fixed ladder and
	// thresholds, GovInterval sampling): mitigations then fire mid-schedule,
	// interleaved deterministically with the fault injector. Schedule token
	// "gov".
	Governed bool
}

// GovInterval is the observation/governor sampling tick on governed stress
// runs. Fixed, so a schedule string pins the whole control loop.
const GovInterval sim.Time = 5000

// GovCalmTail is how many empty intervals the observation and governor
// threads run past the last worker: enough for a fully raised default
// ladder (5 rungs x (cooldown 1 + lower-after 2)) to unwind completely.
const GovCalmTail = 24

// govConfig is the governed stress cell's controller: stock ladder, but
// hair-trigger hysteresis so short CI-sized schedules still exercise raises.
func govConfig() governor.Config {
	return governor.Config{RaiseAfter: 1, LowerAfter: 2, Cooldown: 1}
}

// DefaultQuantum is the preempt-storm tick when Config.Quantum is zero.
const DefaultQuantum = 3000

// initialBalance is each account's starting value; transfers guard against
// underflow so the shared sum is conserved by construction.
const initialBalance = 100

// DefaultConfig is a contended but quick cell: small enough for CI sweeps,
// racy enough that schedules genuinely interleave.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:      seed,
		Threads:   4,
		Rounds:    25,
		OpsPerTxn: 3,
		Accounts:  8,
		Mode:      core.Lazy,
	}
}

// stressLiveness bounds floundering tightly so fault storms terminate fast;
// escalation is part of the protocol surface under test.
func stressLiveness() core.Liveness {
	return core.Liveness{MaxConsecAborts: 24, MaxStallCycles: 4_000_000, MaxCommitRetries: 64}
}

// Outcome is one run's verdict.
type Outcome struct {
	Config   Config
	Schedule string

	Commits     uint64
	Aborts      uint64
	Escalations uint64
	Injected    uint64
	Cycles      sim.Time

	// Report is the oracle's verdict over the run's operation log.
	Report *oracle.Report
	// RunErr records run-level failures independent of the oracle: blocked
	// threads or a broken conservation sum.
	RunErr string

	// Governed-run extras (zero on ungoverned runs): the transition count,
	// the final ladder level, and the canonical transition log.
	GovTransitions int
	GovFinalLevel  int
	GovLog         string
}

// Failed reports whether the run violated anything — serializability, the
// conservation invariant, or liveness.
func (o *Outcome) Failed() bool {
	return o.RunErr != "" || (o.Report != nil && !o.Report.Ok())
}

// Run executes one configuration and checks its history.
func Run(cfg Config) Outcome {
	if cfg.Threads < 2 {
		cfg.Threads = 2
	}
	if cfg.Rounds < 1 {
		cfg.Rounds = 1
	}
	if cfg.OpsPerTxn < 1 {
		cfg.OpsPerTxn = 1
	}
	if cfg.Accounts < 2 {
		cfg.Accounts = 2
	}
	out := Outcome{Config: cfg, Schedule: cfg.Schedule()}

	mc := tmesi.DefaultConfig()
	mc.Cores = cfg.Threads
	if cfg.TinyCache {
		mc.L1 = cache.Config{Sets: 4, Ways: 2, VictimSize: 2}
	}
	sys := tmesi.New(mc)
	if cfg.Governed {
		// The governor classifies from telemetry deltas and flight records,
		// and signature widening needs audit mode — all passive, so the
		// worker schedule itself is unchanged by attaching them.
		sys.SetTelemetry(telemetry.New(mc.Cores))
		sys.SetFlight(flight.New(mc.Cores, 0))
	}
	var inj *fault.Injector
	if cfg.Faults.Any() {
		fc := cfg.Faults
		fc.Seed = cfg.Seed*0x9E3779B97F4A7C15 + 0xA5A5
		inj = fault.NewInjector(fc)
		sys.SetFaultInjector(inj)
	}
	rt := core.New(sys, cfg.Mode, cm.NewPolka())
	rt.SetLiveness(stressLiveness())
	rt.SetWRAborts(!cfg.BreakWR)
	orc := oracle.NewRecorder()
	rt.SetOracle(orc)

	// Shared state: conservation accounts, write-skew cells (one per
	// thread; serializability is their only invariant), and per-thread
	// private lines probed non-transactionally.
	account := allocLines(sys, orc, cfg.Accounts, initialBalance)
	skew := allocLines(sys, orc, cfg.Threads, 0)
	private := allocLines(sys, orc, cfg.Threads, 0)

	e := sim.NewEngine()
	workerCtx := make([]*sim.Ctx, cfg.Threads)
	done := make([]bool, cfg.Threads)
	for ti := 0; ti < cfg.Threads; ti++ {
		id := ti
		workerCtx[id] = e.Spawn(fmt.Sprintf("stress-%d", id), 0, func(ctx *sim.Ctx) {
			th := rt.Bind(ctx, id)
			r := sim.NewRand(cfg.Seed*0x1000193 + uint64(id)*0x10001 + 7)
			for n := 0; n < cfg.Rounds; n++ {
				stressOp(th, r, cfg, id, account, skew, private[id])
			}
			done[id] = true
		})
	}
	if inj != nil && cfg.Faults.Rates[fault.Preempt] > 0 {
		quantum := cfg.Quantum
		if quantum == 0 {
			quantum = DefaultQuantum
		}
		osmodel.New(sys, rt).SpawnPreemptStorm(e, inj, quantum, workerCtx, done)
	}
	var gov *governor.Governor
	if cfg.Governed {
		pump := observatory.NewPump(observatory.Config{Interval: GovInterval, Bus: observatory.NewBus()})
		pump.Bind(sys.Telemetry(), sys.Flight(), observatory.Meta{
			System: "FlexTM(" + cfg.Mode.String() + ")", Workload: "stress",
			Threads: cfg.Threads, Cores: mc.Cores,
		})
		gov = governor.New(govConfig())
		gov.Bind(rt, cfg.Threads)
		pump.SetAnnotator(gov.Annotate)
		// Both run GovCalmTail intervals past the last worker's finish:
		// those empty intervals classify healthy, so any rungs still raised
		// at the end of the schedule are guaranteed to unwind. "Running"
		// means unfinished: a worker parked by the preempt storm counts.
		running := func() bool { return slices.Contains(done, false) }
		pump.Spawn(e, running, GovCalmTail)
		gov.Spawn(e, pump, running, GovCalmTail)
	}
	if blocked := e.Run(); blocked != 0 {
		out.RunErr = fmt.Sprintf("%d threads blocked: liveness budget exceeded without escalation", blocked)
	}

	var total uint64
	for _, a := range account {
		total += sys.ReadWordRaw(a)
	}
	if want := uint64(cfg.Accounts) * initialBalance; total != want && out.RunErr == "" {
		out.RunErr = fmt.Sprintf("conservation: account sum = %d, want %d", total, want)
	}

	st := rt.Stats()
	out.Commits = st.Commits
	out.Aborts = st.Aborts
	out.Escalations = st.Escalations
	if inj != nil {
		out.Injected = inj.Injected()
	}
	out.Cycles = e.MaxTime()
	if gov != nil {
		out.GovTransitions = len(gov.Transitions())
		out.GovFinalLevel = gov.Level()
		out.GovLog = gov.TransitionLog()
	}
	out.Report = oracle.Check(orc.History(), oracle.Options{MaxViolations: cfg.MaxViolations})
	return out
}

// allocLines allocates n one-line cells, writes their initial value into
// the memory image, and registers it with the oracle.
func allocLines(sys *tmesi.System, orc *oracle.Recorder, n int, initial uint64) []memory.Addr {
	out := make([]memory.Addr, n)
	for i := range out {
		out[i] = sys.Alloc().Alloc(memory.LineWords)
		if initial != 0 {
			sys.Image().WriteWord(out[i], initial)
		}
		orc.SetInitial(out[i], initial)
	}
	return out
}

// stressOp performs one seed-drawn operation. The mix is aimed at the races
// the issue names: commit/abort duels, TMI eviction at commit (wide updates
// under TinyCache), alert reordering (all transactional ops under the fault
// injector), write skew (the canonical CST W-R test), and strong-isolation
// interleavings.
func stressOp(th tmapi.Thread, r *sim.Rand, cfg Config, id int,
	account, skew []memory.Addr, priv memory.Addr) {
	n := len(account)
	switch r.Intn(8) {
	case 0: // guarded transfer: the conservation workhorse
		from, to := r.Intn(n), r.Intn(n)
		amt := uint64(r.Intn(5))
		th.Atomic(func(tx tmapi.Txn) {
			f := tx.Load(account[from])
			if f < amt {
				return
			}
			tx.Store(account[from], f-amt)
			tx.Store(account[to], tx.Load(account[to])+amt)
		})
	case 1: // opposite-order duel: threads of opposite parity deadlock-dance
		i, j := r.Intn(n), r.Intn(n)
		if i == j {
			j = (j + 1) % n
		}
		if id%2 == 1 {
			i, j = j, i
		}
		hold := sim.Time(50 * cfg.OpsPerTxn)
		th.Atomic(func(tx tmapi.Txn) {
			tx.Store(account[i], tx.Load(account[i]))
			th.Work(hold)
			tx.Store(account[j], tx.Load(account[j]))
			th.Work(hold)
		})
	case 2: // read-only scan: must always observe a conserved snapshot
		width := n
		if w := 2 + cfg.OpsPerTxn; w < n {
			width = w
		}
		start := r.Intn(n)
		th.Atomic(func(tx tmapi.Txn) {
			for k := 0; k < width; k++ {
				tx.Load(account[(start+k)%n])
			}
		})
	case 3: // write skew: read a neighbor's cell, hold, write our own from it
		src := skew[(id+1+r.Intn(len(skew)-1))%len(skew)]
		hold := sim.Time(100 * cfg.OpsPerTxn)
		th.Atomic(func(tx tmapi.Txn) {
			v := tx.Load(src)
			th.Work(hold)
			tx.Store(skew[id], v+1)
			th.Work(hold)
		})
	case 4: // wide net-zero ripple: TMI eviction + OT walk pressure at commit
		th.Atomic(func(tx tmapi.Txn) {
			for k := 0; k < n; k++ {
				tx.Store(account[k], tx.Load(account[k])+1)
			}
			for k := 0; k < n; k++ {
				tx.Store(account[k], tx.Load(account[k])-1)
			}
		})
	case 5: // strong isolation: NT probe of shared and private state
		th.Load(account[r.Intn(n)])
		th.Store(priv, th.Load(priv)+1)
	case 6: // nested transfer with occasional user abort of the inner txn
		from, to := r.Intn(n), r.Intn(n)
		drop := r.Intn(4) == 0
		th.Atomic(func(tx tmapi.Txn) {
			f := tx.Load(account[from])
			if f == 0 {
				return
			}
			tx.Store(account[from], f-1)
			th.Atomic(func(inner tmapi.Txn) {
				if drop {
					drop = false
					inner.Abort()
				}
				inner.Store(account[to], inner.Load(account[to])+1)
			})
		})
	default: // compute: shifts every subsequent interleaving
		th.Work(sim.Time(r.Intn(400)))
	}
}

// ExploreResult summarizes a seed sweep.
type ExploreResult struct {
	Runs     int
	Failures []Outcome
}

// Explore runs seeds base.Seed .. base.Seed+n-1 of one configuration and
// collects the failing outcomes.
func Explore(base Config, n int) ExploreResult {
	return ExploreParallel(base, n, 1)
}

// ExploreParallel is Explore with the seed cells sharded across workers
// goroutines (1 serial, <= 0 GOMAXPROCS). Each run is a pure function of
// its Config, so the collected failures — order included — are identical
// to the serial sweep's at any worker count.
func ExploreParallel(base Config, n, workers int) ExploreResult {
	res := ExploreResult{Runs: n}
	// Run never errors (failures are data) and there is no stop channel,
	// so Map cannot fail.
	_ = sweepexec.Map(sweepexec.Exec{Workers: workers}, n,
		func(i int) (Outcome, error) {
			cfg := base
			cfg.Seed = base.Seed + uint64(i)
			return Run(cfg), nil
		},
		func(i int, out Outcome) error {
			if out.Failed() {
				res.Failures = append(res.Failures, out)
			}
			return nil
		})
	return res
}

// Shrink greedily minimizes a failing configuration: each step tries a set
// of reductions (halve threads/rounds/accounts/per-txn work, drop one fault
// class, drop the tiny cache) and adopts the first that still fails, until
// none does or budget runs are spent. The result is the smallest failing
// outcome found — its Schedule string plus the oracle's witness history are
// the replayable artifact.
func Shrink(cfg Config, budget int) Outcome {
	if budget <= 0 {
		budget = 64
	}
	best := Run(cfg)
	if !best.Failed() {
		return best
	}
	for budget > 0 {
		improved := false
		for _, cand := range reductions(best.Config) {
			if budget == 0 {
				break
			}
			budget--
			if out := Run(cand); out.Failed() {
				best = out
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	return best
}

// reductions proposes strictly smaller variants of cfg, most aggressive
// first.
func reductions(cfg Config) []Config {
	var out []Config
	add := func(c Config) { out = append(out, c) }
	if cfg.Threads > 2 {
		c := cfg
		c.Threads = cfg.Threads / 2
		if c.Threads < 2 {
			c.Threads = 2
		}
		add(c)
	}
	if cfg.Rounds > 1 {
		c := cfg
		c.Rounds = cfg.Rounds / 2
		add(c)
	}
	if cfg.Accounts > 2 {
		c := cfg
		c.Accounts = cfg.Accounts / 2
		if c.Accounts < 2 {
			c.Accounts = 2
		}
		add(c)
	}
	if cfg.OpsPerTxn > 1 {
		c := cfg
		c.OpsPerTxn = cfg.OpsPerTxn / 2
		add(c)
	}
	for cl := fault.Class(0); cl < fault.NumClasses; cl++ {
		if cfg.Faults.Rates[cl] > 0 {
			c := cfg
			c.Faults.Rates[cl] = 0
			add(c)
		}
	}
	if cfg.TinyCache {
		c := cfg
		c.TinyCache = false
		add(c)
	}
	return out
}

// Schedule renders the configuration as a compact, comma-separated replay
// string: "s7,t4,r25,o3,a8,lazy,tiny,broken,gov,q3000,f:sig-fp:250". Rates are
// basis points (1/100 of a percent). ParseSchedule inverts it.
func (c Config) Schedule() string {
	parts := []string{
		"s" + strconv.FormatUint(c.Seed, 10),
		"t" + strconv.Itoa(c.Threads),
		"r" + strconv.Itoa(c.Rounds),
		"o" + strconv.Itoa(c.OpsPerTxn),
		"a" + strconv.Itoa(c.Accounts),
		strings.ToLower(c.Mode.String()),
	}
	if c.TinyCache {
		parts = append(parts, "tiny")
	}
	if c.BreakWR {
		parts = append(parts, "broken")
	}
	if c.Governed {
		parts = append(parts, "gov")
	}
	if c.Quantum != 0 {
		parts = append(parts, "q"+strconv.FormatUint(uint64(c.Quantum), 10))
	}
	var classes []int
	for cl := 0; cl < int(fault.NumClasses); cl++ {
		if c.Faults.Rates[cl] > 0 {
			classes = append(classes, cl)
		}
	}
	sort.Ints(classes)
	for _, cl := range classes {
		bp := int(c.Faults.Rates[cl]*10000 + 0.5)
		parts = append(parts, fmt.Sprintf("f:%s:%d", fault.Class(cl), bp))
	}
	return strings.Join(parts, ",")
}

// ParseSchedule reverses Config.Schedule.
func ParseSchedule(s string) (Config, error) {
	var c Config
	c.Mode = core.Eager
	seen := false
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		seen = true
		switch {
		case tok == "eager":
			c.Mode = core.Eager
		case tok == "lazy":
			c.Mode = core.Lazy
		case tok == "tiny":
			c.TinyCache = true
		case tok == "broken":
			c.BreakWR = true
		case tok == "gov":
			c.Governed = true
		case strings.HasPrefix(tok, "f:"):
			rest := tok[2:]
			i := strings.LastIndex(rest, ":")
			if i < 0 {
				return c, fmt.Errorf("stress: bad fault token %q (want f:<class>:<bp>)", tok)
			}
			cl, err := fault.ParseClass(rest[:i])
			if err != nil {
				return c, fmt.Errorf("stress: %v", err)
			}
			bp, err := strconv.Atoi(rest[i+1:])
			if err != nil || bp < 0 || bp > 10000 {
				return c, fmt.Errorf("stress: bad basis points in %q", tok)
			}
			c.Faults.Rates[cl] = float64(bp) / 10000
		default:
			if len(tok) < 2 {
				return c, fmt.Errorf("stress: bad schedule token %q", tok)
			}
			v, err := strconv.ParseUint(tok[1:], 10, 64)
			if err != nil {
				return c, fmt.Errorf("stress: bad schedule token %q", tok)
			}
			switch tok[0] {
			case 's':
				c.Seed = v
			case 't':
				c.Threads = int(v)
			case 'r':
				c.Rounds = int(v)
			case 'o':
				c.OpsPerTxn = int(v)
			case 'a':
				c.Accounts = int(v)
			case 'q':
				c.Quantum = sim.Time(v)
			default:
				return c, fmt.Errorf("stress: bad schedule token %q", tok)
			}
		}
	}
	if !seen {
		return c, fmt.Errorf("stress: empty schedule")
	}
	return c, nil
}
