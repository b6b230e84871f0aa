package workloads

import (
	"testing"

	"flextm/internal/baselines/rstm"
	"flextm/internal/baselines/tl2"
	"flextm/internal/cm"
	"flextm/internal/core"
	"flextm/internal/sim"
	"flextm/internal/tmapi"
	"flextm/internal/tmesi"
)

// runWorkload executes ops operations per thread of workload w on runtime
// rt and returns the env for verification.
func runWorkload(t *testing.T, mkRT func(*tmesi.System) tmapi.Runtime, w Workload, threads, ops int) *Env {
	t.Helper()
	cfg := tmesi.DefaultConfig()
	sys := tmesi.New(cfg)
	rt := mkRT(sys)
	env := &Env{Image: sys.Image(), Alloc: sys.Alloc(), Raw: sys.ReadWordRaw}
	w.Setup(env)
	e := sim.NewEngine()
	for i := 0; i < threads; i++ {
		coreID := i
		e.Spawn(w.Name(), 0, func(ctx *sim.Ctx) {
			th := rt.Bind(ctx, coreID)
			for j := 0; j < ops; j++ {
				w.Op(th)
			}
		})
	}
	if blocked := e.Run(); blocked != 0 {
		t.Fatalf("%s on %s: %d threads blocked", w.Name(), rt.Name(), blocked)
	}
	return env
}

func flexLazy(sys *tmesi.System) tmapi.Runtime  { return core.New(sys, core.Lazy, cm.NewPolka()) }
func flexEager(sys *tmesi.System) tmapi.Runtime { return core.New(sys, core.Eager, cm.NewPolka()) }

func TestAllWorkloadsSingleThreaded(t *testing.T) {
	for _, f := range All() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			w := f.New()
			env := runWorkload(t, flexLazy, w, 1, 150)
			if err := w.Verify(env); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllWorkloadsConcurrentLazy(t *testing.T) {
	for _, f := range All() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			w := f.New()
			env := runWorkload(t, flexLazy, w, 8, 60)
			if err := w.Verify(env); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllWorkloadsConcurrentEager(t *testing.T) {
	for _, f := range All() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			w := f.New()
			env := runWorkload(t, flexEager, w, 6, 40)
			if err := w.Verify(env); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRBTreeOnSoftwareTMs(t *testing.T) {
	for name, mk := range map[string]func(*tmesi.System) tmapi.Runtime{
		"TL2":  func(s *tmesi.System) tmapi.Runtime { return tl2.New(s) },
		"RSTM": func(s *tmesi.System) tmapi.Runtime { return rstm.New(s) },
	} {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			w := NewRBTree()
			env := runWorkload(t, mk, w, 6, 40)
			if err := w.Verify(env); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestVacationHighSeesMoreConflictsThanLow(t *testing.T) {
	measure := func(high bool) float64 {
		cfg := tmesi.DefaultConfig()
		sys := tmesi.New(cfg)
		rt := core.New(sys, core.Lazy, cm.NewPolka())
		w := NewVacation(high)
		env := &Env{Image: sys.Image(), Alloc: sys.Alloc(), Raw: sys.ReadWordRaw}
		w.Setup(env)
		e := sim.NewEngine()
		for i := 0; i < 8; i++ {
			coreID := i
			e.Spawn("v", 0, func(ctx *sim.Ctx) {
				th := rt.Bind(ctx, coreID)
				for j := 0; j < 60; j++ {
					w.Op(th)
				}
			})
		}
		e.Run()
		if err := w.Verify(env); err != nil {
			t.Fatal(err)
		}
		return rt.Stats().AbortRate()
	}
	low, high := measure(false), measure(true)
	if high <= low {
		t.Fatalf("abort rates: high=%.3f low=%.3f; high contention should conflict more", high, low)
	}
}

func TestPrimeCompletesWork(t *testing.T) {
	cfg := tmesi.DefaultConfig()
	sys := tmesi.New(cfg)
	rt := core.New(sys, core.Lazy, cm.NewPolka())
	w := NewPrime()
	env := &Env{Image: sys.Image(), Alloc: sys.Alloc(), Raw: sys.ReadWordRaw}
	w.Setup(env)
	e := sim.NewEngine()
	for i := 0; i < 4; i++ {
		coreID := i
		e.Spawn("p", 0, func(ctx *sim.Ctx) {
			th := rt.Bind(ctx, coreID)
			for j := 0; j < 25; j++ {
				w.Op(th)
			}
		})
	}
	e.Run()
	if got := w.Completed(env); got != 100 {
		t.Fatalf("Completed = %d, want 100", got)
	}
	if err := w.Verify(env); err != nil {
		t.Fatal(err)
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("RBTree"); !ok {
		t.Fatal("RBTree not found")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("phantom workload found")
	}
}

func TestLFUCacheSerializesHotPages(t *testing.T) {
	w := NewLFUCache()
	env := runWorkload(t, flexLazy, w, 8, 50)
	if err := w.Verify(env); err != nil {
		t.Fatal(err)
	}
	// Total frequency recorded equals the number of hit operations; at
	// minimum it must be positive and consistent with the heap.
	var totalFreq uint64
	for i := 0; i < lfuHeapSize; i++ {
		totalFreq += env.Read(w.heapSlot(i) + heapFreq)
	}
	if totalFreq == 0 {
		t.Fatal("no cache activity recorded")
	}
}
