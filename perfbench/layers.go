package main

import (
	"math"
	"reflect"
	"runtime"
	"time"

	"flextm/internal/telemetry"
	"flextm/internal/tmesi"
)

// layerUnits are the per-layer metrics of a traced run, with their units.
// Metrics in "count" and "cycles" are simulated and repeat exactly for a
// seed; the rest are host measurements.
var layerUnits = map[string]string{
	"sim.handoff_ns": "ns",
	"sim.share":      "ratio",

	"workloads.setup_ms":   "ms",
	"workloads.verify_ms":  "ms",
	"workloads.self_share": "ratio",

	"tmapi.atomic_calls":        "count",
	"tmapi.attempts":            "count",
	"tmapi.useful_ratio":        "ratio",
	"tmapi.accesses":            "count",
	"tmapi.below_ns_per_access": "ns",

	"core.commits":          "count",
	"core.aborts":           "count",
	"core.escalations":      "count",
	"core.conflict_md":      "count",
	"core.conflict_mx":      "count",
	"core.cyc_useful_frac":  "ratio",
	"core.cyc_stall_frac":   "ratio",
	"core.cyc_aborted_frac": "ratio",
	"core.cyc_commit_frac":  "ratio",
	"cm.waits":              "count",
	"cm.abort_enemy":        "count",
	"cm.abort_self":         "count",
	"cm.wait_cycles":        "cycles",
	"cm.backoff_cycles":     "cycles",

	"tmesi.ops":                  "count",
	"tmesi.tx_frac":              "ratio",
	"tmesi.l1_hit_ratio":         "ratio",
	"tmesi.l2_misses":            "count",
	"tmesi.probes":               "count",
	"tmesi.threatened":           "count",
	"tmesi.exposed_read":         "count",
	"tmesi.flash_commits":        "count",
	"tmesi.flash_aborts":         "count",
	"tmesi.cas_commit_cst_fails": "count",
	"tmesi.alerts":               "count",
	"tmesi.overflows":            "count",
	"tmesi.ot_fetches":           "count",
	"tmesi.op_hit_ns":            "ns",
	"tmesi.op_miss_ns":           "ns",

	"cache.lookups":                "count",
	"cache.lookup_ns":              "ns",
	"cache.flash_commit_ns":        "ns",
	"cache.flash_lines_per_commit": "lines",

	"signature.inserts":   "count",
	"signature.tests":     "count",
	"signature.fp_ratio":  "ratio",
	"signature.insert_ns": "ns",
	"signature.member_ns": "ns",
	"cst.sets":            "count",
	"cst.clears":          "count",
	"cst.copy_clears":     "count",

	"flight.records":               "count",
	"flight.overwritten":           "count",
	"flight.price_ns_per_simop":    "ns",
	"telemetry.price_ns_per_simop": "ns",
	"oracle.price_ns_per_simop":    "ns",
	"oracle.violations":            "count",

	"causal.analyze_ms":        "ms",
	"conflictgraph.analyze_ms": "ms",
	"flightql.queries_ms":      "ms",
	"replay.final_ms":          "ms",
	"analysis.share":           "ratio",

	"harness.cells":      "count",
	"harness.run_ms_p50": "ms",

	"sweepexec.cells":            "count",
	"sweepexec.worker_busy_frac": "ratio",
	"cellcache.hits":             "count",
	"cellcache.misses":           "count",
	"cellcache.hit_ratio":        "ratio",
	"cellcache.get_ms_p50":       "ms",

	"goruntime.gc_cycles":    "gc",
	"goruntime.gc_pause_ms":  "ms",
	"goruntime.heap_peak_mb": "MB",
	"goruntime.gomaxprocs":   "procs",

	"trace.overhead_frac": "ratio",
}

// layerInput is what a traced run measured.
type layerInput struct {
	b *bench
	// untraced is the reference pass; traced carries the spans; counted
	// ran with telemetry on (it is untraced when the grid already has it).
	untraced, traced, counted passOut
	tr                        *tracer
	gcCycles                  uint32
	gcPause                   time.Duration
	heapSys                   uint64
	// prices are the flight, telemetry and oracle host ns per simulated
	// op (postmortem only).
	prices [3]float64
}

// addStats adds every counter of b into a.
func addStats(a *tmesi.Stats, b tmesi.Stats) {
	av, bv := reflect.ValueOf(a).Elem(), reflect.ValueOf(b)
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetUint(av.Field(i).Uint() + bv.Field(i).Uint())
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// layerMetrics computes every per-layer metric. Layers a workload does not
// exercise report 0.
func layerMetrics(in layerInput) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64) {
		unit, ok := layerUnits[name]
		if !ok {
			panic("perfbench: per-layer metric without a unit: " + name)
		}
		m[name] = metric{Value: v, Unit: unit}
	}
	u, t, tr := in.untraced, in.traced, in.tr
	simulates := !in.b.w.replay

	// Simulated counts, from the pass that ran with telemetry on.
	var st tmesi.Stats
	var ctr [telemetry.NumCounters]uint64
	var commits, aborts, esc, flightRecs, flightLost uint64
	var md, mx, violations int
	opsByThreads := map[int]uint64{}
	for _, co := range in.counted.cells {
		r := co.res
		addStats(&st, r.Machine)
		commits += r.Commits
		aborts += r.Aborts
		esc += r.Escalations
		md, mx = max(md, r.MedianConflicts), max(mx, r.MaxConflicts)
		if r.Telemetry != nil {
			for c := telemetry.Counter(0); c < telemetry.NumCounters; c++ {
				ctr[c] += r.Telemetry.Total(c)
			}
		}
		flightRecs += r.Flight.Written()
		flightLost += r.Flight.Overwritten()
		if r.OracleReport != nil {
			violations += r.OracleReport.TotalViolations
		}
		opsByThreads[co.spec.Threads] += co.simops
	}
	ops := simOps(st)
	var runNs int64
	var cellMs []float64
	for _, co := range u.cells {
		runNs += co.dur.Nanoseconds()
		cellMs = append(cellMs, ms(co.dur.Nanoseconds()))
	}

	// sim: the engine handoff at each cell's thread count, weighted by the
	// cells' simulated ops.
	handoff1 := probeHandoff(1)
	var handoff, weight float64
	for th, n := range opsByThreads {
		h := handoff1
		if th != 1 {
			h = probeHandoff(th)
		}
		handoff += h * float64(n)
		weight += float64(n)
	}
	handoff = ratio(handoff, weight)
	put("sim.handoff_ns", handoff)
	if simulates {
		put("sim.share", ratio(handoff*float64(ops), float64(runNs)))
	} else {
		put("sim.share", 0)
	}

	// workloads and tmapi, from the traced pass's spans. One simulated
	// thread runs at a time, so the self time of an op and of a body
	// attempt is workload code; the rest of harness.Run is below tmapi.
	run := tr.aggregate("harness.run").TotalNs
	setup := tr.aggregate("workloads.setup").TotalNs
	verify := tr.aggregate("workloads.verify").TotalNs
	self := tr.aggregate("workloads.op").SelfNs + tr.aggregate("tmapi.attempt").SelfNs
	put("workloads.setup_ms", ms(setup))
	put("workloads.verify_ms", ms(verify))
	put("workloads.self_share", ratio(float64(self), float64(run)))
	put("tmapi.atomic_calls", float64(tr.atomicCalls))
	put("tmapi.attempts", float64(tr.attempts))
	put("tmapi.useful_ratio", ratio(float64(tr.atomicCalls), float64(tr.attempts)))
	put("tmapi.accesses", float64(tr.accesses))
	put("tmapi.below_ns_per_access", ratio(float64(run-setup-verify-self), float64(tr.accesses)))

	// core and cm.
	cyc := float64(ctr[telemetry.CtrCycUseful] + ctr[telemetry.CtrCycStall] +
		ctr[telemetry.CtrCycAborted] + ctr[telemetry.CtrCycCommitOv])
	put("core.commits", float64(commits))
	put("core.aborts", float64(aborts))
	put("core.escalations", float64(esc))
	put("core.conflict_md", float64(md))
	put("core.conflict_mx", float64(mx))
	put("core.cyc_useful_frac", ratio(float64(ctr[telemetry.CtrCycUseful]), cyc))
	put("core.cyc_stall_frac", ratio(float64(ctr[telemetry.CtrCycStall]), cyc))
	put("core.cyc_aborted_frac", ratio(float64(ctr[telemetry.CtrCycAborted]), cyc))
	put("core.cyc_commit_frac", ratio(float64(ctr[telemetry.CtrCycCommitOv]), cyc))
	put("cm.waits", float64(ctr[telemetry.CtrCMWait]))
	put("cm.abort_enemy", float64(ctr[telemetry.CtrCMAbortEnemy]))
	put("cm.abort_self", float64(ctr[telemetry.CtrCMAbortSelf]))
	put("cm.wait_cycles", float64(ctr[telemetry.CtrCMWaitCycles]))
	put("cm.backoff_cycles", float64(ctr[telemetry.CtrCMBackoffCycles]))

	// tmesi.
	lookups := st.L1Hits + st.L1Misses
	put("tmesi.ops", float64(ops))
	put("tmesi.tx_frac", ratio(float64(st.TLoads+st.TStores), float64(ops)))
	put("tmesi.l1_hit_ratio", ratio(float64(st.L1Hits), float64(lookups)))
	put("tmesi.l2_misses", float64(st.L2Misses))
	put("tmesi.probes", float64(st.Probes))
	put("tmesi.threatened", float64(st.ThreatenedResponses))
	put("tmesi.exposed_read", float64(st.ExposedReadResponses))
	put("tmesi.flash_commits", float64(st.FlashCommits))
	put("tmesi.flash_aborts", float64(st.FlashAborts))
	put("tmesi.cas_commit_cst_fails", float64(st.CASCommitCSTFails))
	put("tmesi.alerts", float64(st.Alerts))
	put("tmesi.overflows", float64(st.Overflows))
	put("tmesi.ot_fetches", float64(st.OTFetches))
	hit, miss := probeTMESI(tr.stream)
	put("tmesi.op_hit_ns", hit)
	put("tmesi.op_miss_ns", miss)

	// cache, signature, cst.
	lines := streamLines(tr.stream)
	perCommit := ratio(float64(ctr[telemetry.CtrFlashCommitLines]), float64(st.FlashCommits))
	put("cache.lookups", float64(lookups))
	put("cache.lookup_ns", probeLookup(lines))
	put("cache.flash_commit_ns", probeFlashCommit(int(math.Round(perCommit))))
	put("cache.flash_lines_per_commit", perCommit)
	fp, tn := ctr[telemetry.CtrSigFalsePos], ctr[telemetry.CtrSigTrueNeg]
	put("signature.inserts", float64(st.TLoads+st.TStores))
	put("signature.tests", float64(ctr[telemetry.CtrSigTruePos]+fp+tn))
	put("signature.fp_ratio", ratio(float64(fp), float64(fp+tn)))
	insert, member := probeSignature(lines)
	put("signature.insert_ns", insert)
	put("signature.member_ns", member)
	put("cst.sets", float64(ctr[telemetry.CtrCSTSet]))
	put("cst.clears", float64(ctr[telemetry.CtrCSTClear]))
	put("cst.copy_clears", float64(ctr[telemetry.CtrCSTCopyClear]))

	// Instruments.
	put("flight.records", float64(flightRecs))
	put("flight.overwritten", float64(flightLost))
	put("flight.price_ns_per_simop", in.prices[0])
	put("telemetry.price_ns_per_simop", in.prices[1])
	put("oracle.price_ns_per_simop", in.prices[2])
	put("oracle.violations", float64(violations))

	// Analyses, from the traced pass.
	var an [numAnalyses]int64
	var anTotal int64
	for _, co := range t.cells {
		for k, d := range co.an {
			an[k] += d.Nanoseconds()
			anTotal += d.Nanoseconds()
		}
	}
	put("causal.analyze_ms", ms(an[anCausal]))
	put("conflictgraph.analyze_ms", ms(an[anConflictGraph]))
	put("flightql.queries_ms", ms(an[anFlightQL]))
	put("replay.final_ms", ms(an[anReplay]))
	put("analysis.share", ratio(float64(anTotal), float64(t.wall.Nanoseconds())))

	// harness, sweepexec and the cell cache, from the untraced pass. A
	// warm replay runs harness.Run only for the cells it misses.
	simulated, runP50, getP50 := float64(len(u.cells)), median(cellMs), 0.0
	if !simulates {
		simulated, runP50, getP50 = float64(u.cache.Misses), 0, median(cellMs)
	}
	put("harness.cells", simulated)
	put("harness.run_ms_p50", runP50)
	put("sweepexec.cells", float64(len(u.cells)))
	put("sweepexec.worker_busy_frac", ratio(float64(runNs), float64(u.workers)*float64(u.mapWall.Nanoseconds())))
	put("cellcache.hits", float64(u.cache.Hits))
	put("cellcache.misses", float64(u.cache.Misses))
	put("cellcache.hit_ratio", ratio(float64(u.cache.Hits), float64(u.cache.Hits+u.cache.Misses)))
	put("cellcache.get_ms_p50", getP50)

	// Go runtime, over the untraced pass.
	put("goruntime.gc_cycles", float64(in.gcCycles))
	put("goruntime.gc_pause_ms", ms(int64(in.gcPause)))
	put("goruntime.heap_peak_mb", float64(in.heapSys)/(1<<20))
	put("goruntime.gomaxprocs", float64(runtime.GOMAXPROCS(0)))

	put("trace.overhead_frac", ratio(float64(t.wall), float64(u.wall))-1)
	return m
}
