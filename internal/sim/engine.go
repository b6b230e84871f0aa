//go:build go1.23

// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine models a chip multiprocessor as a set of hardware threads, each
// a coroutine that is resumed one at a time in virtual-time order. A thread
// runs uninterrupted between synchronization points (memory operations). At
// each such point the thread with the smallest virtual clock runs next; ties
// are broken by thread id, so a simulation is bit-deterministic for a given
// configuration and seed.
//
// Spawn wraps each thread body in one iter.Pull sequence, and Run is the only
// driver: it pops the earliest runnable thread by (now, id) and resumes it,
// until the run queue is empty. A yielding thread that is still strictly the
// earliest runnable one simply keeps running (the stay-running fast path).
// Otherwise it pushes itself onto the run queue, unless it is blocking, and
// suspends, which returns control to Run's loop. A finished body simply
// returns. The fast path only skips a push and pop that would have returned
// the yielder itself, so the order is exactly that of a central scheduler
// that resumes the minimum after every yield.
//
// Exactly one thread runs at any instant, so simulated machine state needs no
// locking: every structure in the memory system is touched only by the
// running thread. A coroutine switch hands the processor over without the Go
// scheduler, and iter.Pull records every switch as a happens-before edge for
// the race detector.
//
// A body that panics ends Run with a *ThreadPanic that carries the thread's
// name, the original value and the faulting stack; a body that calls
// runtime.Goexit ends the goroutine that called Run. Either way Run first
// stops every other unfinished thread: its coroutine unwinds from the point
// where it suspended, running its defers but touching no further simulated
// state, so no coroutine outlives the failed run. Threads still blocked
// when Run returns normally stay suspended where they parked (see Run).
//
// iter.Pull needs language version go1.23. The engine's file raises its own
// language version with a go1.23 build constraint instead of bumping go.mod,
// because modules that require this one (perfbench) pin go 1.22 and would
// otherwise fail to build.
package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Time is a point in virtual time, measured in processor cycles.
type Time = uint64

// Ctx is the execution context of one simulated hardware thread. All methods
// must be called from the thread's own body.
type Ctx struct {
	id     int
	name   string
	now    Time
	engine *Engine
	// next resumes the thread's coroutine until it suspends or finishes;
	// only Run calls it. suspend, called from inside the body, returns
	// control to Run. stop unwinds a suspended coroutine (see stopAll).
	next    func() (struct{}, bool)
	suspend func(struct{}) bool
	stop    func()
	// state flags, owned by the running thread (never concurrent)
	finished bool
	blocked  bool
	inHeap   bool
	// descheduleReq is set by another thread (e.g. an OS scheduler model) to
	// ask this thread to park at its next synchronization point.
	descheduleReq bool
	parkNotify    func(*Ctx)
}

// ID returns the thread's identifier (also its heap tie-breaker).
func (c *Ctx) ID() int { return c.id }

// Name returns the thread's diagnostic name.
func (c *Ctx) Name() string { return c.name }

// Now returns the thread's local virtual clock.
func (c *Ctx) Now() Time { return c.now }

// Done reports whether the thread can make no further progress on its own:
// it has finished, or it is blocked waiting for another thread. Observer
// threads (e.g. the observatory pump) use it to stop sampling once every
// worker is done, so a perpetual observer cannot keep the engine alive.
func (c *Ctx) Done() bool { return c.finished || c.blocked }

// Advance moves the thread's local clock forward by d cycles without
// yielding. Use it for computation that touches no shared simulated state.
func (c *Ctx) Advance(d Time) { c.now += d }

// Sync returns once this thread is globally the earliest runnable thread by
// (now, id). Call it immediately before touching shared simulated state (the
// memory system calls it on every operation). A pending RequestPark is
// honored first. If the thread is already the earliest, Sync returns without
// a coroutine switch.
func (c *Ctx) Sync() {
	if c.descheduleReq {
		c.park()
	}
	c.yield()
}

// Block parks the thread indefinitely; another thread must call
// Engine.Unblock to make it runnable again. The thread's clock is advanced
// to the unblock time if that is later.
func (c *Ctx) Block() {
	c.blocked = true
	c.yield()
}

// park honors a pending deschedule request: it notifies the requester and
// blocks until rescheduled.
func (c *Ctx) park() {
	c.descheduleReq = false
	notify := c.parkNotify
	c.parkNotify = nil
	if notify != nil {
		notify(c)
	}
	c.Block()
}

// yield gives up the processor until c is again the earliest runnable
// thread. A runnable c that still orders strictly before the run queue's
// head keeps running. Otherwise c is queued (unless blocked) and suspends
// until Run pops and resumes it. suspend returns false only when stopAll
// stopped the coroutine; the body then unwinds with a threadStopped panic
// instead of touching the machine again.
func (c *Ctx) yield() {
	e := c.engine
	if !c.blocked {
		if len(e.ready) == 0 || ctxLess(c, e.ready[0]) {
			return
		}
		e.push(c)
	}
	if !c.suspend(struct{}{}) {
		panic(threadStopped{})
	}
}

// threadStopped is the panic that unwinds a stopped thread's body. Spawn's
// wrapper swallows it: it is the engine's own signal, not a body fault.
type threadStopped struct{}

// ThreadPanic is the value Run panics with when a thread's body panics.
type ThreadPanic struct {
	Thread string // name of the thread whose body panicked
	Value  any    // the value the body panicked with
	Stack  []byte // the body's stack at the panic
}

// Error names the thread and gives the original value and stack.
func (p *ThreadPanic) Error() string {
	return fmt.Sprintf("sim: thread %s panicked: %v\n\n%s", p.Thread, p.Value, p.Stack)
}

// Unwrap returns the original value when it is an error.
func (p *ThreadPanic) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}

// Engine is a discrete-event scheduler over a set of simulated threads.
type Engine struct {
	threads []*Ctx
	// ready is a binary min-heap ordered by ctxLess.
	ready   []*Ctx
	running bool
}

// NewEngine returns an empty engine.
func NewEngine() *Engine { return &Engine{} }

// Spawn creates a simulated thread that will run body starting at virtual
// time start. The body does not begin executing until Run is called.
func (e *Engine) Spawn(name string, start Time, body func(*Ctx)) *Ctx {
	if e.running {
		panic("sim: Spawn while engine is running")
	}
	c := &Ctx{
		id:     len(e.threads),
		name:   name,
		now:    start,
		engine: e,
	}
	e.threads = append(e.threads, c)
	c.next, c.stop = iter.Pull(func(suspend func(struct{}) bool) {
		c.suspend = suspend
		defer func() {
			if v := recover(); v != nil {
				if _, stopped := v.(threadStopped); stopped {
					return
				}
				panic(&ThreadPanic{Thread: name, Value: v, Stack: debug.Stack()})
			}
		}()
		body(c)
		c.finished = true
	})
	e.push(c)
	return c
}

// Unblock makes a blocked thread runnable again no earlier than time at.
// It must be called from a running simulated thread or before Run.
func (e *Engine) Unblock(c *Ctx, at Time) {
	if !c.blocked {
		panic(fmt.Sprintf("sim: Unblock(%s): thread is not blocked", c.name))
	}
	c.blocked = false
	if c.now < at {
		c.now = at
	}
	e.push(c)
}

// RequestPark asks thread c to park at its next synchronization point.
// notify, if non-nil, runs in c's body just before it blocks; use it to save
// state and to learn the park time. If c is the calling thread the park
// happens at its next Sync.
func (e *Engine) RequestPark(c *Ctx, notify func(*Ctx)) {
	if c.finished || c.blocked {
		return
	}
	c.descheduleReq = true
	c.parkNotify = notify
}

// Run executes threads in virtual-time order until every thread has finished
// or blocked. It returns the number of threads left blocked (0 means all ran
// to completion).
//
// A thread still blocked when Run returns stays suspended where it parked:
// its body's defers do not run. An Unblock before a later Run resumes it
// there. Run must not be called from a simulated thread; a body panic
// surfaces here as a *ThreadPanic, after every other unfinished thread has
// been stopped (see stopAll).
func (e *Engine) Run() int {
	if e.running {
		panic("sim: Run while engine is running")
	}
	e.running = true
	drained := false
	defer func() {
		if !drained {
			e.stopAll()
		}
		e.running = false
	}()
	for len(e.ready) > 0 {
		e.pop().next()
	}
	drained = true
	blocked := 0
	for _, c := range e.threads {
		if c.blocked && !c.finished {
			blocked++
		}
	}
	return blocked
}

// stopAll stops the coroutine of every unfinished thread after a body
// panic (or Goexit) ended Run, so none stays suspended for good. A stopped
// coroutine that never started does not run; a suspended one resumes in
// yield and unwinds with threadStopped.
func (e *Engine) stopAll() {
	for _, c := range e.threads {
		if !c.finished {
			c.stop()
		}
	}
}

// MaxTime returns the largest local clock across all threads: the makespan
// of the simulation.
func (e *Engine) MaxTime() Time {
	var m Time
	for _, c := range e.threads {
		if c.now > m {
			m = c.now
		}
	}
	return m
}

// Threads returns the threads spawned so far, in id order.
func (e *Engine) Threads() []*Ctx { return e.threads }

// ctxLess orders threads by (now, id), a strict total order.
func ctxLess(a, b *Ctx) bool {
	if a.now != b.now {
		return a.now < b.now
	}
	return a.id < b.id
}

func (e *Engine) push(c *Ctx) {
	if c.inHeap {
		panic(fmt.Sprintf("sim: thread %s pushed twice", c.name))
	}
	c.inHeap = true
	h := append(e.ready, c)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !ctxLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.ready = h
}

func (e *Engine) pop() *Ctx {
	h := e.ready
	c := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < n && ctxLess(h[l], h[m]) {
			m = l
		}
		if r := 2*i + 2; r < n && ctxLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	e.ready = h
	c.inHeap = false
	return c
}
