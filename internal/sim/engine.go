// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine models a chip multiprocessor as a set of hardware threads, each
// executed by a Go goroutine that is resumed one at a time in virtual-time
// order. A thread runs uninterrupted between synchronization points (memory
// operations). At each such point the thread with the smallest virtual clock
// runs next; ties are broken by thread id, so a simulation is
// bit-deterministic for a given configuration and seed.
//
// There is no scheduler goroutine. A yielding thread that is still strictly
// the earliest runnable one simply keeps running (the stay-running fast
// path). Otherwise it pushes itself onto the run queue, pops the earliest
// thread, resumes it directly and parks. A thread that finishes, or blocks
// with an empty run queue, hands off the same way; when nothing is left to
// run it wakes Run instead. Because (now, id) is a strict total order, the
// run queue pops the same sequence whichever thread does the popping, and
// the fast path only skips a push and pop that would have returned the
// yielder itself: the order is exactly that of a central scheduler that
// resumes the minimum after every yield.
//
// Because exactly one thread runs at any instant, and every handoff is a
// channel operation, simulated machine state needs no locking: every
// structure in the memory system is touched only by the running thread.
package sim

import "fmt"

// Time is a point in virtual time, measured in processor cycles.
type Time = uint64

// Ctx is the execution context of one simulated hardware thread. All methods
// must be called from the goroutine running the thread's body.
type Ctx struct {
	id     int
	name   string
	now    Time
	engine *Engine
	resume chan struct{}
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
// a goroutine switch.
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
// head keeps running. Otherwise c is queued (unless blocked), the earliest
// thread is resumed directly from c's goroutine, and c parks until some
// thread pops it in turn.
func (c *Ctx) yield() {
	e := c.engine
	if !c.blocked {
		if len(e.ready) == 0 || ctxLess(c, e.ready[0]) {
			return
		}
		e.push(c)
	}
	e.handoff()
	<-c.resume
}

// Engine is a discrete-event scheduler over a set of simulated threads.
type Engine struct {
	threads []*Ctx
	// ready is a binary min-heap ordered by ctxLess.
	ready []*Ctx
	// idle is signalled by the thread that finds the run queue empty, which
	// ends Run.
	idle    chan struct{}
	running bool
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{idle: make(chan struct{})}
}

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
		resume: make(chan struct{}),
	}
	e.threads = append(e.threads, c)
	go func() {
		<-c.resume
		body(c)
		c.finished = true
		e.handoff()
	}()
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
// notify, if non-nil, runs in c's goroutine just before it blocks; use it to
// save state and to learn the park time. If c is the calling thread the park
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
func (e *Engine) Run() int {
	e.running = true
	defer func() { e.running = false }()
	if len(e.ready) > 0 {
		e.pop().resume <- struct{}{}
		<-e.idle
	}
	blocked := 0
	for _, c := range e.threads {
		if c.blocked && !c.finished {
			blocked++
		}
	}
	return blocked
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

// handoff passes the processor from the calling thread, which must not be
// runnable or must already be queued, to the earliest queued thread, or to
// Run when the queue is empty.
func (e *Engine) handoff() {
	if len(e.ready) == 0 {
		e.idle <- struct{}{}
		return
	}
	e.pop().resume <- struct{}{}
}

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
