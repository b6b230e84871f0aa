package baselines

import (
	"runtime"
	"runtime/debug"
	"testing"

	"flextm/internal/baselines/bulk"
	"flextm/internal/baselines/cgl"
	"flextm/internal/baselines/logtm"
	"flextm/internal/baselines/rstm"
	"flextm/internal/baselines/rtmf"
	"flextm/internal/baselines/tl2"
	"flextm/internal/memory"
	"flextm/internal/sim"
	"flextm/internal/tmapi"
	"flextm/internal/tmesi"
)

// baseline is one of the six baseline runtimes with the heap allocations
// one small committed transaction costs it.
type baseline struct {
	name   string
	new    func(*tmesi.System) tmapi.Runtime
	allocs float64
}

// baselineRuntimes lists the runtimes in a fixed order. The allocation
// counts are what each runtime's own per-transaction state costs: none,
// since every runtime clears and reuses its lookup maps, TL2 its commit's
// lock set, and Bulk the copy of the write signature it broadcasts.
func baselineRuntimes() []baseline {
	return []baseline{
		{"CGL", func(s *tmesi.System) tmapi.Runtime { return cgl.New(s) }, 0},
		{"RSTM", func(s *tmesi.System) tmapi.Runtime { return rstm.New(s) }, 0},
		{"TL2", func(s *tmesi.System) tmapi.Runtime { return tl2.New(s) }, 0},
		{"RTM-F", func(s *tmesi.System) tmapi.Runtime { return rtmf.New(s) }, 0},
		{"LogTM", func(s *tmesi.System) tmapi.Runtime { return logtm.New(s) }, 0},
		{"Bulk", func(s *tmesi.System) tmapi.Runtime { return bulk.New(s) }, 0},
	}
}

// onThread runs f on a runtime thread bound to core 0 of a fresh two-core
// machine; x is a word on its own line.
func onThread(t testing.TB, mk func(*tmesi.System) tmapi.Runtime, f func(th tmapi.Thread, x memory.Addr)) {
	cfg := tmesi.DefaultConfig()
	cfg.Cores = 2
	sys := tmesi.New(cfg)
	rt := mk(sys)
	x := sys.Alloc().Alloc(memory.LineWords)
	e := sim.NewEngine()
	e.Spawn("w", 0, func(ctx *sim.Ctx) { f(rt.Bind(ctx, 0), x) })
	if blocked := e.Run(); blocked != 0 {
		t.Fatalf("%s: %d threads blocked", rt.Name(), blocked)
	}
}

// BenchmarkAtomic prices the transaction driver plus each runtime's
// protocol: one committed read-modify-write of one word per op.
func BenchmarkAtomic(b *testing.B) {
	for _, bl := range baselineRuntimes() {
		b.Run(bl.name, func(b *testing.B) {
			onThread(b, bl.new, func(th tmapi.Thread, x memory.Addr) {
				inc := func(tx tmapi.Txn) { tx.Store(x, tx.Load(x)+1) }
				th.Atomic(inc) // warm the line and the runtime's buffers
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					th.Atomic(inc)
				}
			})
		})
	}
}

// allocsPer is testing.AllocsPerRun with the collector held off, so the
// first collection's worker goroutines are not counted against f.
func allocsPer(f func()) float64 {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(100, f)
}

// TestAtomicAllocations holds each runtime's allocations per committed
// transaction to its count, and a nested Atomic, which merges into the
// enclosing transaction, to none.
func TestAtomicAllocations(t *testing.T) {
	for _, bl := range baselineRuntimes() {
		t.Run(bl.name, func(t *testing.T) {
			onThread(t, bl.new, func(th tmapi.Thread, x memory.Addr) {
				inc := func(tx tmapi.Txn) { tx.Store(x, tx.Load(x)+1) }
				th.Atomic(inc)
				if got := allocsPer(func() { th.Atomic(inc) }); got > bl.allocs {
					t.Errorf("%v allocations per committed transaction, want at most %v", got, bl.allocs)
				}
				var nested float64
				th.Atomic(func(tx tmapi.Txn) {
					inc(tx)
					nested = allocsPer(func() { th.Atomic(inc) })
				})
				if nested != 0 {
					t.Errorf("%v allocations per nested Atomic, want 0", nested)
				}
			})
		})
	}
}
