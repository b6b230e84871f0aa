package harness

// This file wires the harness sweeps to the parallel sweep engine
// (internal/sweepexec) and the content-addressed cell cache
// (internal/sweepexec/cache). Every figure is a grid of independent
// deterministic cells; the figure functions flatten their grids and hand
// them to sweepexec.Map, which executes cells on GOMAXPROCS workers but
// emits results — and therefore OnResult callbacks and plot
// folds — in exactly the serial order. The cache sits underneath: a
// cacheable cell's full Result round-trips through the run codec
// (runcodec.go; telemetry snapshot and flight records included), so a warm
// store replays a sweep without running a single simulation.

import (
	"encoding/json"

	"flextm/internal/fault"
	"flextm/internal/flight"
	"flextm/internal/sim"
	"flextm/internal/sweepexec"
	cellcache "flextm/internal/sweepexec/cache"
	"flextm/internal/telemetry"
	"flextm/internal/tmesi"
)

// CellCacheSchema is the cell cache's code schema version. Bump it on ANY
// change that alters simulation results — machine timing, protocol logic,
// workload generation, metric derivation — so stale entries miss instead
// of resurrecting the old behavior, and on any change to an entry's
// payload encoding. The version participates in both the key hash and the
// stored envelope. v2: binary entries, with runs in the run codec.
const CellCacheSchema = "flextm-cell/v2"

// cellSchema namespaces the schema per cell kind, so a "run" entry can
// never decode as an "isolated" entry even under a hash collision.
func cellSchema(kind string) string { return CellCacheSchema + "/" + kind }

// Exec resolves the sweep's executor, which Grid and every figure function
// hand to sweepexec.Map. The pool is sweepexec's default, GOMAXPROCS
// workers, except that observation forces serial: the shared pump is
// re-bound per run and its subscribers contract to see one run stream at a
// time.
func (sc SweepConfig) Exec() sweepexec.Exec {
	e := sweepexec.Exec{Stop: sc.Stop}
	if sc.Observe != nil {
		e.Workers = 1
	}
	return e
}

// cacheableRun reports whether rc's Result is a pure serializable function
// of its serializable fields. Runs carrying live hooks (observation,
// governor) or the oracle are executed live: their value is in the side
// effects and reports the cache cannot replay.
func cacheableRun(rc RunConfig) bool {
	return !rc.Oracle && rc.Observe == nil && rc.Govern == nil
}

// runKey is the canonical cacheable identity of one Run: every RunConfig
// field that can influence the Result of a cacheable run. json.Marshal
// emits struct fields in declaration order, so the encoding is canonical
// and equal configs always produce equal keys.
type runKey struct {
	System        SystemName   `json:"system"`
	Workload      string       `json:"workload"`
	Threads       int          `json:"threads"`
	Ops           int          `json:"ops"`
	Warmup        int          `json:"warmup"`
	Machine       tmesi.Config `json:"machine"`
	Verify        bool         `json:"verify"`
	Metrics       bool         `json:"metrics"`
	Flight        bool         `json:"flight"`
	FlightPerCore int          `json:"flightPerCore"`
	Faults        fault.Config `json:"faults"`
}

// cachedResult is Result's serializable mirror. The flight recorder is
// flattened to its live records and rebuilt with flight.Restore on a hit;
// everything else round-trips exactly through the run codec (appendRun,
// decodeRun). The JSON tags are not the cache format: tests compare live
// and replayed results through this mirror's JSON.
type cachedResult struct {
	System          SystemName          `json:"system"`
	Workload        string              `json:"workload"`
	Threads         int                 `json:"threads"`
	Commits         uint64              `json:"commits"`
	Aborts          uint64              `json:"aborts"`
	Cycles          sim.Time            `json:"cycles"`
	Throughput      float64             `json:"throughput"`
	MedianConflicts int                 `json:"medianConflicts"`
	MaxConflicts    int                 `json:"maxConflicts"`
	Machine         tmesi.Stats         `json:"machine"`
	Telemetry       *telemetry.Snapshot `json:"telemetry,omitempty"`
	FlightRecs      []flight.Rec        `json:"flightRecs,omitempty"`
	HasFlight       bool                `json:"hasFlight,omitempty"`
	Escalations     uint64              `json:"escalations"`
	FaultReport     *fault.Report       `json:"faultReport,omitempty"`
}

func mirrorResult(res Result) cachedResult {
	cv := cachedResult{
		System:          res.System,
		Workload:        res.Workload,
		Threads:         res.Threads,
		Commits:         res.Commits,
		Aborts:          res.Aborts,
		Cycles:          res.Cycles,
		Throughput:      res.Throughput,
		MedianConflicts: res.MedianConflicts,
		MaxConflicts:    res.MaxConflicts,
		Machine:         res.Machine,
		Telemetry:       res.Telemetry,
		Escalations:     res.Escalations,
		FaultReport:     res.FaultReport,
	}
	if res.Flight != nil {
		cv.HasFlight = true
		cv.FlightRecs = res.Flight.Snapshot()
	}
	return cv
}

func (cv cachedResult) result(cores int) Result {
	res := Result{
		System:          cv.System,
		Workload:        cv.Workload,
		Threads:         cv.Threads,
		Commits:         cv.Commits,
		Aborts:          cv.Aborts,
		Cycles:          cv.Cycles,
		Throughput:      cv.Throughput,
		MedianConflicts: cv.MedianConflicts,
		MaxConflicts:    cv.MaxConflicts,
		Machine:         cv.Machine,
		Telemetry:       cv.Telemetry,
		Escalations:     cv.Escalations,
		FaultReport:     cv.FaultReport,
	}
	if cv.HasFlight {
		res.Flight = flight.Restore(cores, cv.FlightRecs)
	}
	return res
}

// runCellKey is the cell cache key of a cacheable run.
func runCellKey(schema string, rc RunConfig) (string, error) {
	return cellcache.Key(schema, runKey{
		System: rc.System, Workload: rc.Workload.Name, Threads: rc.Threads,
		Ops: rc.OpsPerThread, Warmup: rc.WarmupOps, Machine: rc.Machine,
		Verify: rc.Verify, Metrics: rc.Metrics, Flight: rc.Flight,
		FlightPerCore: rc.FlightPerCore, Faults: rc.Faults,
	})
}

// RunCell executes one sweep cell through the cell cache: a clean hit
// replays the stored Result without simulating; a miss (or an uncacheable
// configuration, or no cache) runs live and, on success, stores the
// mirror. The nil-cache path falls straight through to Run with no key
// hashing and no allocation — caching off costs nothing.
func (sc SweepConfig) RunCell(rc RunConfig) (Result, error) {
	if sc.Cache == nil || !cacheableRun(rc) {
		return Run(rc)
	}
	schema := cellSchema("run")
	key, err := runCellKey(schema, rc)
	if err != nil {
		return Run(rc)
	}
	var cv cachedResult
	if sc.Cache.Get(key, schema, func(p []byte) (err error) {
		cv, err = decodeRun(p)
		return err
	}) {
		return cv.result(rc.Machine.Cores), nil
	}
	res, err := Run(rc)
	if err != nil {
		return res, err
	}
	// A failed Put only costs a future miss; the result is already good.
	mirror := mirrorResult(res)
	_ = sc.Cache.Put(key, schema, appendRun(nil, &mirror))
	return res, nil
}

// cellValue caches an arbitrary plain-data cell value (an isolated
// throughput, a multiprogram point's rates, a manager-ablation row) under
// the canonical encoding of cfg. miss runs the cell live; its error is
// never cached. These values are a few dozen bytes each, so their payload stays
// encoding/json: only runs carry enough bytes to earn a codec.
func cellValue[T any](store *cellcache.Store, kind string, cfg any, miss func() (T, error)) (T, error) {
	if store == nil {
		return miss()
	}
	schema := cellSchema(kind)
	key, err := cellcache.Key(schema, cfg)
	if err != nil {
		return miss()
	}
	var v T
	if store.Get(key, schema, func(p []byte) error { return json.Unmarshal(p, &v) }) {
		return v, nil
	}
	v, err = miss()
	if err != nil {
		return v, err
	}
	if p, err := json.Marshal(v); err == nil {
		_ = store.Put(key, schema, p)
	}
	return v, nil
}
