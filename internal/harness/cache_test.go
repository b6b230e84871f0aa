package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"flextm/internal/observatory"
	"flextm/internal/sweepexec"
	cellcache "flextm/internal/sweepexec/cache"
	"flextm/internal/tmesi"
	"flextm/internal/workloads"
)

// cachedSweep is quickSweep with a cell cache in dir.
func cachedSweep(t *testing.T, dir string) SweepConfig {
	t.Helper()
	sc := quickSweep()
	store, err := cellcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sc.Cache = store
	return sc
}

// encodeResult canonicalizes a Result — flight records flattened — for
// byte comparison between live and replayed runs.
func encodeResult(t *testing.T, res Result) []byte {
	t.Helper()
	b, err := json.Marshal(mirrorResult(res))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunCellWarmCacheReplaysWithoutSimulating: the second identical sweep
// must be pure cache hits — zero misses, zero puts — and byte-identical to
// the live one, telemetry and flight records included.
func TestRunCellWarmCacheReplaysWithoutSimulating(t *testing.T) {
	sc := cachedSweep(t, t.TempDir())
	sc.Metrics = true
	f, _ := workloads.ByName("HashTable")
	rc := RunConfig{
		System: FlexTMEager, Workload: f, Threads: 4, OpsPerThread: 40,
		Machine: sc.Machine, Verify: true, Metrics: true, Flight: true,
	}
	live, err := sc.RunCell(rc)
	if err != nil {
		t.Fatal(err)
	}
	cold := sc.Cache.Stats()
	if cold.Misses != 1 || cold.Puts != 1 || cold.Hits != 0 {
		t.Fatalf("cold stats = %+v", cold)
	}
	replay, err := sc.RunCell(rc)
	if err != nil {
		t.Fatal(err)
	}
	warm := sc.Cache.Stats()
	if warm.Hits != 1 || warm.Misses != 1 || warm.Puts != 1 {
		t.Fatalf("warm stats = %+v (the second run simulated)", warm)
	}
	if !bytes.Equal(encodeResult(t, live), encodeResult(t, replay)) {
		t.Fatal("replayed result differs from the live run")
	}
	if replay.Flight == nil || len(replay.Flight.Snapshot()) == 0 {
		t.Fatal("flight recorder not rehydrated from the cache")
	}
	if replay.Telemetry == nil {
		t.Fatal("telemetry not rehydrated from the cache")
	}
}

// TestFigureWarmCacheIsPureReplay: a full figure sweep over a warm store
// executes zero simulations and reproduces the plots byte for byte.
func TestFigureWarmCacheIsPureReplay(t *testing.T) {
	sc := cachedSweep(t, t.TempDir())
	f, _ := workloads.ByName("HashTable")
	cold, err := sweep(sc, f, []SystemName{FlexTMEager, RSTM})
	if err != nil {
		t.Fatal(err)
	}
	coldStats := sc.Cache.Stats()
	if coldStats.Hits != 0 || coldStats.Puts == 0 {
		t.Fatalf("cold stats = %+v", coldStats)
	}
	warm, err := sweep(sc, f, []SystemName{FlexTMEager, RSTM})
	if err != nil {
		t.Fatal(err)
	}
	warmStats := sc.Cache.Stats()
	if warmStats.Misses != coldStats.Misses || warmStats.Puts != coldStats.Puts {
		t.Fatalf("warm sweep simulated: cold %+v, warm %+v", coldStats, warmStats)
	}
	if warmStats.Hits == 0 {
		t.Fatal("warm sweep hit nothing")
	}
	cb, _ := json.Marshal(cold)
	wb, _ := json.Marshal(warm)
	if !bytes.Equal(cb, wb) {
		t.Fatal("warm plot differs from cold plot")
	}
}

// withProcs runs fn at GOMAXPROCS n, and so on n sweep workers, then
// restores the old setting. The setting is process-wide: only sequential
// tests may call it.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// TestFigureParallelSharedCacheIdentity: a parallel sweep over a cell
// cache — every worker goroutine Getting and Putting one shared store —
// must be byte-identical to the serial cached run, cold (concurrent Puts
// plus evict) and warm (concurrent Gets), and the warm parallel sweep must
// execute zero simulations. Running under -race in the CI test job, this
// is also the store's concurrency regression test in situ: paperbench
// -cache on a multi-CPU host.
func TestFigureParallelSharedCacheIdentity(t *testing.T) {
	f, _ := workloads.ByName("HashTable")
	systems := []SystemName{FlexTMEager, RSTM}
	var (
		refPlot Plot
		err     error
	)
	withProcs(1, func() { refPlot, err = sweep(cachedSweep(t, t.TempDir()), f, systems) })
	if err != nil {
		t.Fatal(err)
	}
	refBytes, err := json.Marshal(refPlot)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		sc := cachedSweep(t, t.TempDir())
		var (
			cold, warm           Plot
			coldErr, warmErr     error
			coldStats, warmStats cellcache.Stats
		)
		withProcs(w, func() {
			cold, coldErr = sweep(sc, f, systems)
			coldStats = sc.Cache.Stats()
			warm, warmErr = sweep(sc, f, systems)
			warmStats = sc.Cache.Stats()
		})
		if coldErr != nil || warmErr != nil {
			t.Fatalf("parallel=%d: cold %v, warm %v", w, coldErr, warmErr)
		}
		if coldStats.Puts == 0 {
			t.Fatalf("parallel=%d cold sweep put nothing: %+v", w, coldStats)
		}
		cb, _ := json.Marshal(cold)
		wb, _ := json.Marshal(warm)
		if !bytes.Equal(cb, refBytes) {
			t.Errorf("parallel=%d cold cached plot differs from the serial cached plot", w)
		}
		if !bytes.Equal(wb, refBytes) {
			t.Errorf("parallel=%d warm cached plot differs from the serial cached plot", w)
		}
		if warmStats.Misses != coldStats.Misses || warmStats.Puts != coldStats.Puts {
			t.Errorf("parallel=%d warm sweep simulated: cold %+v, warm %+v", w, coldStats, warmStats)
		}
		if warmStats.Hits == 0 {
			t.Errorf("parallel=%d warm sweep hit nothing", w)
		}
	}
}

// TestSweepExecFollowsGOMAXPROCS: a sweep runs GOMAXPROCS cells at once,
// and one at a time while the observation plane is attached. Each cell
// holds its worker until procs cells are in flight, or until wait passes.
func TestSweepExecFollowsGOMAXPROCS(t *testing.T) {
	const procs = 3
	peak := func(sc SweepConfig, wait time.Duration) int32 {
		var inflight, peak atomic.Int32
		full := make(chan struct{})
		withProcs(procs, func() {
			_ = sweepexec.Map(sc.Exec(), procs, func(int) (struct{}, error) {
				n := inflight.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				if n == procs {
					close(full)
				}
				select {
				case <-full:
				case <-time.After(wait):
				}
				inflight.Add(-1)
				return struct{}{}, nil
			}, nil)
		})
		return peak.Load()
	}
	if got := peak(quickSweep(), time.Minute); got != procs {
		t.Errorf("unobserved sweep ran %d cells at once, want GOMAXPROCS = %d", got, procs)
	}
	sc := quickSweep()
	sc.Observe = observatory.NewPump(observatory.Config{})
	if got := peak(sc, 20*time.Millisecond); got != 1 {
		t.Errorf("observed sweep ran %d cells at once, want 1", got)
	}
}

// TestRunCellCorruptedEntryRerunsLive: a damaged cache entry silently
// falls back to a live simulation with the correct result.
func TestRunCellCorruptedEntryRerunsLive(t *testing.T) {
	dir := t.TempDir()
	sc := cachedSweep(t, dir)
	f, _ := workloads.ByName("RBTree")
	rc := RunConfig{
		System: FlexTMLazy, Workload: f, Threads: 4, OpsPerThread: 40,
		Machine: sc.Machine, Verify: true,
	}
	live, err := sc.RunCell(rc)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the single stored entry.
	var corrupted int
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)/2] ^= 0x01
		corrupted++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if corrupted != 1 {
		t.Fatalf("corrupted %d entries, want 1", corrupted)
	}
	rerun, err := sc.RunCell(rc)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Cache.Stats().Corrupt == 0 {
		t.Fatal("corruption not detected")
	}
	if !bytes.Equal(encodeResult(t, live), encodeResult(t, rerun)) {
		t.Fatal("fallback run differs from the original live run")
	}
	// The overwrite repaired the entry: next call is a clean hit.
	before := sc.Cache.Stats()
	if _, err := sc.RunCell(rc); err != nil {
		t.Fatal(err)
	}
	if after := sc.Cache.Stats(); after.Hits != before.Hits+1 {
		t.Fatalf("entry not repaired: before %+v after %+v", before, after)
	}
}

// TestUncacheableRunsBypassStore: runs with live hooks (observation,
// tracing, oracle, ...) never read or write the cache.
func TestUncacheableRunsBypassStore(t *testing.T) {
	sc := cachedSweep(t, t.TempDir())
	f, _ := workloads.ByName("HashTable")
	rc := RunConfig{
		System: FlexTMEager, Workload: f, Threads: 2, OpsPerThread: 40,
		Machine: sc.Machine, Verify: true, Oracle: true,
	}
	if _, err := sc.RunCell(rc); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.RunCell(rc); err != nil {
		t.Fatal(err)
	}
	if st := sc.Cache.Stats(); st != (cellcache.Stats{}) {
		t.Fatalf("oracle run touched the cache: %+v", st)
	}
}

// TestRunCellCacheOffAddsNoAllocations: with no cache attached, RunCell
// must be exactly Run — no key hashing, no mirror building, no extra
// allocation on the dispatch path.
func TestRunCellCacheOffAddsNoAllocations(t *testing.T) {
	f, _ := workloads.ByName("HashTable")
	// Threads=0 fails Run's first validation check, isolating the
	// dispatch overhead from the (allocation-heavy) simulation itself.
	rc := RunConfig{System: FlexTMEager, Workload: f, Threads: 0, Machine: tmesi.DefaultConfig()}
	sc := SweepConfig{}
	direct := testing.AllocsPerRun(100, func() { _, _ = Run(rc) })
	viaCell := testing.AllocsPerRun(100, func() { _, _ = sc.RunCell(rc) })
	if viaCell > direct {
		t.Fatalf("RunCell with caching off allocates more than Run: %.1f > %.1f", viaCell, direct)
	}
}

// TestCellSchemaNamespacesKinds: entries of different cell kinds can never
// decode as one another even if their configs coincide.
func TestCellSchemaNamespacesKinds(t *testing.T) {
	store, err := cellcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	type cfg struct {
		Workload string `json:"workload"`
	}
	runs := 0
	v1, err := cellValue(store, "run", cfg{"X"}, func() (float64, error) { runs++; return 1.5, nil })
	if err != nil || v1 != 1.5 {
		t.Fatalf("v1 = %v, %v", v1, err)
	}
	v2, err := cellValue(store, "isolated", cfg{"X"}, func() (float64, error) { runs++; return 2.5, nil })
	if err != nil || v2 != 2.5 {
		t.Fatalf("kind collision: v2 = %v, %v", v2, err)
	}
	if runs != 2 {
		t.Fatalf("miss funcs ran %d times, want 2", runs)
	}
	// Second pass: both replay from their own entries.
	v1b, _ := cellValue(store, "run", cfg{"X"}, func() (float64, error) { runs++; return -1, nil })
	v2b, _ := cellValue(store, "isolated", cfg{"X"}, func() (float64, error) { runs++; return -1, nil })
	if runs != 2 || v1b != 1.5 || v2b != 2.5 {
		t.Fatalf("replay wrong: runs=%d v1=%v v2=%v", runs, v1b, v2b)
	}
}

// TestFiguresTakeBasesFromTheGrid: against a fresh store, a normalized
// figure with a 1-thread column looks up its grid cells and nothing else,
// because each workload's base is the grid's own (base system, 1-thread)
// cell; only HTMComparison, whose series lack CGL, looks up one base cell
// per workload besides. OnResult fires once per grid cell and never for a
// base.
func TestFiguresTakeBasesFromTheGrid(t *testing.T) {
	if raceEnabled {
		t.Skip("counts lookups of about 140 single-goroutine simulations; the pool is covered by the identity tests")
	}
	for _, tc := range []struct {
		name           string
		figure         func(SweepConfig) ([]Plot, error)
		cells, lookups uint64
	}{
		{"Figure4", Figure4, 78, 78},
		{"Figure5", Figure5, 24, 24},
		{"HTMComparison", HTMComparison, 36, 36 + 3},
	} {
		sc := cachedSweep(t, t.TempDir())
		sc.Threads = []int{1, 4, 16} // paperbench -quick's columns
		var results uint64
		sc.OnResult = func(Result) { results++ }
		if _, err := tc.figure(sc); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st := sc.Cache.Stats(); st.Hits+st.Misses != tc.lookups {
			t.Errorf("%s: %d store lookups (%+v), want %d", tc.name, st.Hits+st.Misses, st, tc.lookups)
		}
		if results != tc.cells {
			t.Errorf("%s: OnResult fired %d times, want once per grid cell (%d)", tc.name, results, tc.cells)
		}
	}
}
