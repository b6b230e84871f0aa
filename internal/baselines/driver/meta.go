package driver

import (
	"flextm/internal/cm"
	"flextm/internal/memory"
	"flextm/internal/sim"
	"flextm/internal/tmesi"
)

// Status-word values.
const (
	Active    = 1
	Committed = 2
	Aborted   = 3
)

// Patience bounds the arbitration rounds an open spends on one owner
// before its transaction aborts itself instead of spinning forever on a
// stuck owner.
const Patience = 30

// headerCount is the size of a header table.
const headerCount = 1 << 13

// Headers is a table of object headers in simulated memory. Every header
// sits on its own cache line, so acquiring one object does not invalidate
// its neighbours; data lines map to headers by hash, and lines that collide
// share one.
type Headers memory.Addr

// NewHeaders allocates a header table on sys.
func NewHeaders(sys *tmesi.System) Headers {
	return Headers(sys.Alloc().Alloc(headerCount * memory.LineWords))
}

// Of returns the first word of l's header.
func (h Headers) Of(l memory.LineAddr) memory.Addr {
	x := uint64(l) * 0xC2B2AE3D27D4EB4F
	return memory.Addr(h) + memory.Addr((x%headerCount)*memory.LineWords)
}

// statusSlots is the number of status words each core cycles through.
const statusSlots = 64

// StatusRing gives every core a ring of status words, one per attempt, so
// a late CAS on an old attempt's word cannot abort a newer attempt.
type StatusRing struct {
	sys   *tmesi.System
	slots []memory.Addr // statusSlots per core
	next  []int
	cur   []memory.Addr
}

// NewStatusRing allocates each core's status words on sys, one line each,
// calling after(core), if not nil, right after core's words, so a runtime
// can interleave more per-core memory with the rings (RSTM's clone arenas
// sit between them).
func NewStatusRing(sys *tmesi.System, after func(core int)) *StatusRing {
	cores := sys.Config().Cores
	r := &StatusRing{sys: sys, next: make([]int, cores), cur: make([]memory.Addr, cores)}
	for c := 0; c < cores; c++ {
		for i := 0; i < statusSlots; i++ {
			r.slots = append(r.slots, sys.Alloc().Alloc(memory.LineWords))
		}
		if after != nil {
			after(c)
		}
	}
	return r
}

// Begin stores Active into t's next status word, then publishes that word
// as t's current one and returns it.
func (r *StatusRing) Begin(t *Thread) memory.Addr {
	i := r.next[t.core]
	r.next[t.core] = (i + 1) % statusSlots
	a := r.slots[t.core*statusSlots+i]
	r.sys.Store(t.ctx, t.core, a, Active)
	r.cur[t.core] = a
	return a
}

// Of returns core's current status word.
func (r *StatusRing) Of(core int) memory.Addr { return r.cur[core] }

// Arbiter is the Polka contention manager of the object-based STMs with
// the per-core karma it weighs: the objects the current attempt opened.
type Arbiter struct {
	status *StatusRing
	mgr    cm.Manager
	Karma  []int
}

// NewArbiter returns a Polka arbiter that aborts enemies through status.
func NewArbiter(status *StatusRing) *Arbiter {
	return &Arbiter{status: status, mgr: cm.NewPolka(), Karma: make([]int, len(status.cur))}
}

// Arbitrate settles one round of t's conflict with the core enemy, which
// owns an object t wants: abort t, abort enemy by swinging its status word
// to Aborted and pausing pause cycles, or wait.
func (a *Arbiter) Arbitrate(t *Thread, enemy, attempt int, pause sim.Time) {
	dec, wait := a.mgr.OnConflict(cm.Conflict{
		Me: t.core, Enemy: enemy,
		MyKarma: a.Karma[t.core], EnemyKarma: a.Karma[enemy],
		Attempt: attempt,
	}, t.rnd)
	switch dec {
	case cm.AbortSelf:
		Abort()
	case cm.AbortEnemy:
		a.status.sys.CAS(t.ctx, t.core, a.status.Of(enemy), Active, Aborted)
		t.ctx.Advance(pause)
	case cm.Wait:
		t.ctx.Advance(wait)
	}
}

// RetryBackoff is the manager's delay before t retries after its n-th
// consecutive abort.
func (a *Arbiter) RetryBackoff(t *Thread, n int) sim.Time { return a.mgr.RetryBackoff(n, t.rnd) }
