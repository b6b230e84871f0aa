package osmodel

import (
	"fmt"

	"flextm/internal/core"
	"flextm/internal/sim"
	"flextm/internal/tmapi"
)

// Scheduler timeslices more software threads than the machine has cores,
// using the Manager's suspend/resume machinery: at every quantum the
// running thread on each core is parked (its transactional state saved and
// summarized at the directory per Section 5) and the next thread with
// affinity for that core is resumed. Transactions routinely survive
// multiple context switches; conflicts with suspended transactions are
// caught by the summary signatures.
//
// Threads keep core affinity, so suspended transactions resume on their
// home core and never take the migration abort.
type Scheduler struct {
	m       *Manager
	rt      *core.Runtime
	engine  *sim.Engine
	quantum sim.Time

	queues  [][]*swThread // per core, round-robin order
	pending int
}

type swThread struct {
	ctx     *sim.Ctx
	core    int
	started bool
	done    bool
	parked  bool
	susp    *Suspended
}

// NewScheduler returns a quantum-based scheduler over the manager's
// machine and runtime.
func NewScheduler(m *Manager, rt *core.Runtime, engine *sim.Engine, quantum sim.Time) *Scheduler {
	return &Scheduler{
		m:       m,
		rt:      rt,
		engine:  engine,
		quantum: quantum,
		queues:  make([][]*swThread, m.sys.Config().Cores),
	}
}

// Spawn registers a software thread with affinity for coreID. The first
// thread of a core starts immediately; later ones wait for their slice.
// body receives the thread's FlexTM binding.
func (s *Scheduler) Spawn(coreID int, body func(th tmapi.Thread)) {
	t := &swThread{core: coreID}
	first := len(s.queues[coreID]) == 0
	s.queues[coreID] = append(s.queues[coreID], t)
	s.pending++
	t.ctx = s.engine.Spawn(fmt.Sprintf("sw-%d-%d", coreID, len(s.queues[coreID])), 0,
		func(ctx *sim.Ctx) {
			if !first {
				t.parked = true
				ctx.Block() // wait for the first slice
			}
			t.started = true
			body(s.rt.BindThread(ctx, coreID))
			t.done = true
			s.pending--
		})
	if !first {
		t.started = false
	}
}

// Run drives the machine: it spawns the OS coroutine and runs the engine to
// completion, returning the number of threads that failed to finish (0 on
// success).
func (s *Scheduler) Run() int {
	s.engine.Spawn("os-scheduler", 0, func(ctx *sim.Ctx) {
		for s.pending > 0 {
			ctx.Advance(s.quantum)
			ctx.Sync()
			for coreID := range s.queues {
				s.rotate(ctx, coreID)
			}
		}
	})
	blocked := s.engine.Run()
	// The OS thread itself exits when all workers are done; anything still
	// blocked is a scheduling failure.
	return blocked
}

// rotate preempts the running thread on coreID (if any) and resumes the
// next runnable one.
func (s *Scheduler) rotate(ctx *sim.Ctx, coreID int) {
	q := s.queues[coreID]
	runnable := 0
	for _, t := range q {
		if !t.done {
			runnable++
		}
	}
	if runnable <= 1 {
		s.ensureSomeoneRuns(ctx, coreID)
		return
	}

	// Find the currently running thread (started, not parked, not done).
	var cur *swThread
	for _, t := range q {
		if t.started && !t.parked && !t.done {
			cur = t
			break
		}
	}
	if cur != nil {
		parked := false
		s.engine.RequestPark(cur.ctx, func(v *sim.Ctx) {
			cur.susp = s.m.Suspend(v, coreID)
			cur.parked = true
			parked = true
		})
		// Wait (in virtual time) until the victim actually parks; it may
		// finish instead, which is just as good.
		for !parked && !cur.done {
			ctx.Advance(50)
			ctx.Sync()
		}
	}
	s.ensureSomeoneRuns(ctx, coreID)
}

// ensureSomeoneRuns resumes the next parked, unfinished thread on coreID if
// no thread is currently running there.
func (s *Scheduler) ensureSomeoneRuns(ctx *sim.Ctx, coreID int) {
	q := s.queues[coreID]
	for _, t := range q {
		if t.started && !t.parked && !t.done {
			return // someone is running
		}
	}
	// Round-robin: rotate the queue so the next parked thread wakes.
	for i, t := range q {
		if t.done || !t.parked {
			continue
		}
		if t.susp != nil {
			s.m.Resume(ctx, coreID, t.susp)
			t.susp = nil
		}
		t.parked = false
		t.started = true
		s.engine.Unblock(t.ctx, ctx.Now())
		// Move it to the back for fairness.
		s.queues[coreID] = append(append(append([]*swThread{}, q[:i]...), q[i+1:]...), t)
		return
	}
}
