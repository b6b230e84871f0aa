package main

import (
	"fmt"

	"flextm/internal/memory"
	"flextm/internal/sim"
	"flextm/internal/tmapi"
	"flextm/internal/workloads"
)

// seededFactory is the seeded input adapter at the tmapi boundary. Every
// thread the wrapped workload sees draws Rand() from a stream derived from
// seed and its core; seed 0 passes the runtime's own Rand() through, so a
// seed-0 cell reproduces an unwrapped run of the same config exactly. The
// factory name carries the seed, so cell-cache keys differ per seed, while
// the workload's Name() stays the paper name. The runtimes' internal RNGs
// (contention-manager back-off) are left alone.
//
// A non-nil tracer additionally records spans around Setup, Op, Verify and
// every tmapi call, and samples the address stream for the layer probes.
func seededFactory(f workloads.Factory, seed uint64, tr *tracer) workloads.Factory {
	return workloads.Factory{
		Name: fmt.Sprintf("%s#seed=%d", f.Name, seed),
		New: func() workloads.Workload {
			return &seededWorkload{inner: f.New(), seed: seed, tr: tr}
		},
	}
}

type seededWorkload struct {
	inner workloads.Workload
	seed  uint64
	tr    *tracer
	// threads holds the adapter per core. The engine resumes one simulated
	// thread at a time, through channel handoffs, so the slice needs no lock.
	threads []*benchThread
}

func (w *seededWorkload) Name() string { return w.inner.Name() }

func (w *seededWorkload) Setup(env *workloads.Env) {
	defer w.tr.cellSpan("workloads.setup")()
	w.inner.Setup(env)
}

func (w *seededWorkload) Verify(env *workloads.Env) error {
	defer w.tr.cellSpan("workloads.verify")()
	return w.inner.Verify(env)
}

func (w *seededWorkload) Op(th tmapi.Thread) {
	bt := w.thread(th)
	if w.tr == nil {
		w.inner.Op(bt)
		return
	}
	bt.push("workloads.op")
	defer bt.pop()
	w.inner.Op(bt)
}

// thread returns the adapter for th, creating it on the thread's first op.
func (w *seededWorkload) thread(th tmapi.Thread) *benchThread {
	c := th.Core()
	for len(w.threads) <= c {
		w.threads = append(w.threads, nil)
	}
	if bt := w.threads[c]; bt != nil && bt.Thread == th {
		return bt
	}
	bt := &benchThread{Thread: th, tr: w.tr}
	if w.seed != 0 {
		bt.rnd = sim.NewRand(mix(w.seed, uint64(c)))
	}
	if w.tr != nil {
		bt.tx = w.tr.txOps
	}
	w.threads[c] = bt
	return bt
}

// mix derives a per-core stream seed (splitmix64 finalizer).
func mix(seed, core uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + core + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// benchThread wraps a runtime thread. Untraced, only Rand differs from the
// wrapped thread; traced, every tmapi call is a span.
type benchThread struct {
	tmapi.Thread
	rnd *sim.Rand
	tr  *tracer
	// tx reports whether the runtime maps Txn loads and stores to TMESI
	// T-ops (FlexTM) rather than ordinary ops, for the address stream.
	tx    bool
	stack []frame
}

func (t *benchThread) Rand() *sim.Rand {
	if t.rnd != nil {
		return t.rnd
	}
	return t.Thread.Rand()
}

func (t *benchThread) Atomic(body func(tmapi.Txn)) {
	if t.tr == nil {
		t.Thread.Atomic(body)
		return
	}
	t.push("tmapi.atomic")
	defer t.pop()
	t.tr.count(&t.tr.atomicCalls)
	t.Thread.Atomic(func(x tmapi.Txn) {
		t.push("tmapi.attempt")
		defer t.pop()
		t.tr.count(&t.tr.attempts)
		t.tr.access(streamBegin, t.tx, 0)
		body(tracedTxn{t: t, inner: x})
	})
}

func (t *benchThread) Load(a memory.Addr) uint64 {
	if t.tr == nil {
		return t.Thread.Load(a)
	}
	t.push("tmapi.load")
	defer t.pop()
	t.tr.access(streamLoad, false, a)
	return t.Thread.Load(a)
}

func (t *benchThread) Store(a memory.Addr, v uint64) {
	if t.tr == nil {
		t.Thread.Store(a, v)
		return
	}
	t.push("tmapi.store")
	defer t.pop()
	t.tr.access(streamStore, false, a)
	t.Thread.Store(a, v)
}

// tracedTxn is the transaction view a traced body sees.
type tracedTxn struct {
	t     *benchThread
	inner tmapi.Txn
}

func (x tracedTxn) Load(a memory.Addr) uint64 {
	x.t.push("txn.load")
	defer x.t.pop()
	x.t.tr.access(streamLoad, x.t.tx, a)
	return x.inner.Load(a)
}

func (x tracedTxn) Store(a memory.Addr, v uint64) {
	x.t.push("txn.store")
	defer x.t.pop()
	x.t.tr.access(streamStore, x.t.tx, a)
	x.inner.Store(a, v)
}

func (x tracedTxn) Abort() { x.inner.Abort() }

// push opens a span on this thread; pop closes the innermost one. pop runs
// deferred, so an abort unwinding a body through several spans closes each.
func (t *benchThread) push(name string) {
	parent := t.tr.runSpanID()
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].id
	}
	t.stack = append(t.stack, t.tr.open(name, parent, t.tr.cell))
}

func (t *benchThread) pop() {
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := t.tr.close(f)
	if n > 0 {
		t.stack[n-1].child += d
	}
}
