// Package driver is the transaction driver the baseline runtimes share:
// the thread plumbing, the per-core outcome counters, and one Atomic that
// owns subsumption nesting, the recovered attempt region and the retry
// loop. A runtime supplies only its protocol (begin, commit, rollback,
// retry back-off). meta.go holds the simulated metadata several runtimes
// lay out the same way: the object-header table, the status-word ring and
// the karma arbitration of the object-based STMs.
package driver

import (
	"flextm/internal/sim"
	"flextm/internal/tmapi"
)

// Protocol is one runtime's transaction protocol. Atomic runs Begin, the
// body and Commit in one recovered region; an abort panic anywhere in it
// runs Rollback instead of Commit's effects. Commit reports whether the
// transaction committed; a false return counts as an abort, and Commit
// cleans up after itself. Backoff is the delay before the retry that
// follows the n-th consecutive abort.
type Protocol interface {
	Begin()
	Commit() bool
	Rollback()
	Backoff(n int) sim.Time
}

// Tally holds a runtime's commit and abort counts, one entry per core.
type Tally []tmapi.Stats

// NewTally returns counters for cores cores.
func NewTally(cores int) Tally { return make(Tally, cores) }

// Stats implements tmapi.Runtime: the counts summed over cores.
func (t Tally) Stats() tmapi.Stats {
	var total tmapi.Stats
	for i := range t {
		total.Commits += t[i].Commits
		total.Aborts += t[i].Aborts
	}
	return total
}

// Thread returns the driver half of a thread bound to core. Its random
// source is seeded core*0x9E3779B9 + salt; p is the runtime's protocol and
// tx the view its transaction bodies get.
func (t Tally) Thread(ctx *sim.Ctx, core int, salt uint64, p Protocol, tx tmapi.Txn) Thread {
	return Thread{
		ctx: ctx, core: core, rnd: sim.NewRand(uint64(core)*0x9E3779B9 + salt),
		stats: &t[core], proto: p, txn: tx,
	}
}

// Thread is the runtime-independent half of a baseline thread. A runtime
// embeds it and adds the non-transactional Load and Store.
type Thread struct {
	ctx    *sim.Ctx
	core   int
	rnd    *sim.Rand
	depth  int // Atomic nesting; inner sections merge into the outermost
	aborts int // consecutive aborts of the current Atomic
	stats  *tmapi.Stats
	proto  Protocol
	txn    tmapi.Txn
}

// Core implements tmapi.Thread.
func (t *Thread) Core() int { return t.core }

// Ctx implements tmapi.Thread.
func (t *Thread) Ctx() *sim.Ctx { return t.ctx }

// Rand implements tmapi.Thread.
func (t *Thread) Rand() *sim.Rand { return t.rnd }

// Work implements tmapi.Thread.
func (t *Thread) Work(d sim.Time) { t.ctx.Advance(d) }

// Atomic implements tmapi.Thread: a nested call runs its body inside the
// enclosing transaction (subsumption); an outermost one retries the body,
// backing off between attempts, until the protocol commits it.
func (t *Thread) Atomic(body func(tmapi.Txn)) {
	if t.depth > 0 {
		t.depth++
		defer func() { t.depth-- }()
		body(t.txn)
		return
	}
	for !t.attempt(body) {
		t.stats.Aborts++
		t.aborts++
		t.ctx.Advance(t.proto.Backoff(t.aborts))
	}
	t.stats.Commits++
	t.aborts = 0
}

// attempt runs one attempt. An abort panic rolls the attempt back and
// reports failure; any other panic propagates.
func (t *Thread) attempt(body func(tmapi.Txn)) (ok bool) {
	t.depth = 1
	defer func() {
		t.depth = 0
		if r := recover(); r != nil {
			if _, isAbort := r.(tmapi.AbortError); !isAbort {
				panic(r)
			}
			t.proto.Rollback()
		}
	}()
	t.proto.Begin()
	body(t.txn)
	return t.proto.Commit()
}

// Abort aborts the running attempt.
func Abort() { panic(tmapi.AbortError{}) }

// Backoff draws a retry delay uniform in [0, base<<min(n, maxShift)].
func Backoff(rnd *sim.Rand, base, n, maxShift int) sim.Time {
	return sim.Time(rnd.Intn(base<<uint(min(n, maxShift)) + 1))
}
