package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// BenchmarkSync prices one Ctx.Sync round trip with 1, 2 and 16 threads
// runnable. With one thread every Sync takes the stay-running fast path;
// with more, each Sync whose thread is overtaken suspends to Run's driver
// loop, which resumes the next thread.
func BenchmarkSync(b *testing.B) {
	for _, threads := range []int{1, 2, 16} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			b.ReportAllocs()
			per := (b.N + threads - 1) / threads
			e := NewEngine()
			for i := 0; i < threads; i++ {
				e.Spawn("bench", 0, func(c *Ctx) {
					for j := 0; j < per; j++ {
						c.Advance(1)
						c.Sync()
					}
				})
			}
			b.ResetTimer()
			e.Run()
		})
	}
}

// TestSyncIsAllocationFree pins the handoff: a Sync round trip between two
// threads (thread 0 hands off to thread 1, which hands straight back)
// allocates nothing.
func TestSyncIsAllocationFree(t *testing.T) {
	e := NewEngine()
	stop := false
	allocs := -1.0
	e.Spawn("measure", 0, func(c *Ctx) {
		allocs = testing.AllocsPerRun(1000, func() {
			c.Advance(1)
			c.Sync()
		})
		stop = true
	})
	e.Spawn("partner", 0, func(c *Ctx) {
		for !stop {
			c.Advance(1)
			c.Sync()
		}
	})
	if blocked := e.Run(); blocked != 0 {
		t.Fatalf("blocked = %d, want 0", blocked)
	}
	if allocs != 0 {
		t.Fatalf("2-thread Sync round trip allocates %.1f, want 0", allocs)
	}
}

// resumeEvent is one return from Sync or Block: which thread resumed, and at
// what virtual time.
type resumeEvent struct {
	id  int
	now Time
}

// runRandomProgram runs a random program of 1–6 threads derived from seed.
// Each thread mixes Advance, Sync, Block, Unblock of a blocked peer, and
// RequestPark of itself or a peer; a finishing thread unblocks every
// blocked thread. On every return from Sync or Block it checks that no
// other live thread orders before the resumed one by (now, id). It returns
// the resume trace, the blocked count from Run, and the first violation.
func runRandomProgram(seed uint64) (trace []resumeEvent, blocked int, violation string) {
	e := NewEngine()
	threads := 1 + NewRand(seed).Intn(6)
	resumed := func(c *Ctx) {
		trace = append(trace, resumeEvent{c.id, c.now})
		if violation != "" {
			return
		}
		if c.Done() {
			violation = fmt.Sprintf("%s resumed while blocked", c.name)
			return
		}
		for _, o := range e.Threads() {
			if o != c && !o.Done() && ctxLess(o, c) {
				violation = fmt.Sprintf("%s resumed at %d before %s at %d",
					c.name, c.now, o.name, o.now)
				return
			}
		}
	}
	unblockAll := func(c *Ctx) {
		for _, o := range e.Threads() {
			if o.blocked {
				e.Unblock(o, c.now)
			}
		}
	}
	for i := 0; i < threads; i++ {
		r := NewRand(seed*7919 + uint64(i) + 1)
		steps := 1 + r.Intn(40)
		e.Spawn(fmt.Sprintf("t%d", i), Time(r.Intn(4)), func(c *Ctx) {
			for s := 0; s < steps; s++ {
				switch op := r.Intn(10); {
				case op < 5:
					c.Advance(Time(r.Intn(8)))
					c.Sync()
					resumed(c)
				case op == 5:
					c.Advance(Time(r.Intn(8)))
				case op == 6:
					c.Block()
					resumed(c)
				case op == 7:
					peers := e.Threads()
					if o := peers[r.Intn(len(peers))]; o.blocked {
						e.Unblock(o, c.now+Time(r.Intn(8)))
					}
				case op == 8:
					peers := e.Threads()
					e.RequestPark(peers[r.Intn(len(peers))], nil)
				default:
					unblockAll(c)
				}
			}
			unblockAll(c)
		})
	}
	blocked = e.Run()
	return trace, blocked, violation
}

// TestScheduleOrderProperty checks the engine's order guarantee step by
// step over random programs, for both the stay-running fast path and the
// switch through the driver loop, and that the schedule is a function of
// the program alone.
func TestScheduleOrderProperty(t *testing.T) {
	f := func(seed uint64) bool {
		trace, blocked, violation := runRandomProgram(seed)
		if violation != "" {
			t.Logf("seed %d: %s", seed, violation)
			return false
		}
		again, blockedAgain, _ := runRandomProgram(seed)
		if blocked != blockedAgain || !reflect.DeepEqual(trace, again) {
			t.Logf("seed %d: two runs differ (blocked %d vs %d, %d vs %d resumes)",
				seed, blocked, blockedAgain, len(trace), len(again))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRequestParkOnEarliestThread checks that the fast path honors a pending
// deschedule request: a thread that is still the earliest runnable one
// parks at its next Sync, whether it asked for the park itself or another
// thread did.
func TestRequestParkOnEarliestThread(t *testing.T) {
	e := NewEngine()
	var self, victim *Ctx
	var selfParkedAt, victimParkedAt Time
	self = e.Spawn("self", 0, func(c *Ctx) {
		e.RequestPark(c, func(v *Ctx) { selfParkedAt = v.Now() })
		c.Advance(1)
		c.Sync() // earliest by far, but must park here
		if c.Now() != 1000 {
			t.Errorf("self resumed at %d, want 1000", c.Now())
		}
	})
	e.Spawn("os", 5, func(c *Ctx) {
		c.Sync()
		e.RequestPark(victim, func(v *Ctx) { victimParkedAt = v.Now() })
		c.Advance(995)
		c.Sync()
		for _, p := range []*Ctx{self, victim} {
			if p.blocked {
				e.Unblock(p, c.Now())
			}
		}
	})
	victim = e.Spawn("victim", 2, func(c *Ctx) {
		c.Sync()
		c.Advance(4)
		c.Sync() // hands off to os at 5, which requests the park
		c.Advance(1)
		c.Sync() // earliest (7 < 1000), but must park here
	})
	if blocked := e.Run(); blocked != 0 {
		t.Fatalf("blocked = %d, want 0", blocked)
	}
	if selfParkedAt != 1 {
		t.Fatalf("self parked at %d, want 1", selfParkedAt)
	}
	if victimParkedAt != 7 {
		t.Fatalf("victim parked at %d, want 7", victimParkedAt)
	}
}

// TestLastRunnableThreadBlocks checks that Run returns, with every thread
// counted as blocked, when the last runnable thread blocks while the others
// are already blocked.
func TestLastRunnableThreadBlocks(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", 0, func(c *Ctx) { c.Block() })
	e.Spawn("b", 3, func(c *Ctx) { c.Block() })
	e.Spawn("last", 1, func(c *Ctx) {
		c.Advance(10)
		c.Sync()
		c.Block()
	})
	if blocked := e.Run(); blocked != 3 {
		t.Fatalf("blocked = %d, want 3", blocked)
	}
}

// TestUnblockBeforeRun checks that a thread left blocked by one Run and
// unblocked before the next resumes at the given time, in order with the
// other threads.
func TestUnblockBeforeRun(t *testing.T) {
	e := NewEngine()
	var order []resumeEvent
	sleeper := e.Spawn("sleeper", 0, func(c *Ctx) {
		c.Block()
		order = append(order, resumeEvent{c.ID(), c.Now()})
	})
	if blocked := e.Run(); blocked != 1 {
		t.Fatalf("first Run: blocked = %d, want 1", blocked)
	}
	e.Spawn("ticker", 0, func(c *Ctx) {
		for i := 0; i < 3; i++ {
			c.Advance(100)
			c.Sync()
			order = append(order, resumeEvent{c.ID(), c.Now()})
		}
	})
	e.Unblock(sleeper, 250)
	if blocked := e.Run(); blocked != 0 {
		t.Fatalf("second Run: blocked = %d, want 0", blocked)
	}
	want := []resumeEvent{{1, 100}, {1, 200}, {0, 250}, {1, 300}}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("resume order = %v, want %v", order, want)
	}
}

var errFault = errors.New("fault in body")

// faultingFrame is the frame TestBodyPanicSurfacesInRun expects to find in
// the stack a ThreadPanic carries.
func faultingFrame() { panic(errFault) }

// recoverRun runs e and returns the value Run panicked with, or nil.
func recoverRun(e *Engine) (pv any) {
	defer func() { pv = recover() }()
	e.Run()
	return nil
}

// TestBodyPanicSurfacesInRun checks that a body panic is recoverable from
// Run's caller as a *ThreadPanic that names the thread, unwraps to the
// original error and carries the stack of the faulting frame, and that the
// engine accepts new threads afterwards.
func TestBodyPanicSurfacesInRun(t *testing.T) {
	e := NewEngine()
	e.Spawn("bystander", 0, func(c *Ctx) {
		for i := 0; i < 4; i++ {
			c.Advance(1)
			c.Sync()
		}
	})
	e.Spawn("faulty", 0, func(c *Ctx) {
		c.Advance(2)
		c.Sync()
		faultingFrame()
	})
	p, ok := recoverRun(e).(*ThreadPanic)
	if !ok {
		t.Fatal("Run did not panic with a *ThreadPanic")
	}
	if p.Thread != "faulty" || !strings.Contains(p.Error(), "thread faulty panicked") {
		t.Fatalf("panic names thread %q (%q), want faulty", p.Thread, p.Error())
	}
	if !errors.Is(p, errFault) {
		t.Fatalf("panic value %v does not unwrap to the body's error", p.Value)
	}
	if !strings.Contains(string(p.Stack), "sim.faultingFrame") {
		t.Fatalf("panic stack does not name the faulting frame:\n%s", p.Stack)
	}
	e.Spawn("after", 0, func(c *Ctx) {})
}

// TestBlockedThreadsStaySuspendedAfterRun pins what Run leaves behind: a
// thread still blocked when Run returns neither continues nor unwinds (its
// defers do not run), and an Unblock before the next Run resumes it where
// it parked.
func TestBlockedThreadsStaySuspendedAfterRun(t *testing.T) {
	e := NewEngine()
	var after, deferred bool
	var resumedAt Time
	sleeper := e.Spawn("sleeper", 0, func(c *Ctx) {
		defer func() { deferred = true }()
		c.Block()
		after = true
		resumedAt = c.Now()
	})
	if blocked := e.Run(); blocked != 1 {
		t.Fatalf("first Run: blocked = %d, want 1", blocked)
	}
	if after || deferred {
		t.Fatalf("blocked thread ran on after Run (after=%v, deferred=%v)", after, deferred)
	}
	e.Unblock(sleeper, 40)
	if blocked := e.Run(); blocked != 0 {
		t.Fatalf("second Run: blocked = %d, want 0", blocked)
	}
	if !after || !deferred || resumedAt != 40 {
		t.Fatalf("thread did not finish from its park point (after=%v, deferred=%v, resumedAt=%d)",
			after, deferred, resumedAt)
	}
}

// TestRunIsNotReentrant checks that Run called from a simulated thread
// panics, like Spawn, instead of nesting a second driver.
func TestRunIsNotReentrant(t *testing.T) {
	e := NewEngine()
	e.Spawn("nested", 0, func(c *Ctx) { e.Run() })
	p, ok := recoverRun(e).(*ThreadPanic)
	if !ok || p.Value != "sim: Run while engine is running" {
		t.Fatalf("Run from a thread: panic %v, want sim: Run while engine is running", p)
	}
}

// TestBodyPanicStopsEveryThread checks that a recovered body panic leaves
// no coroutine behind: Run stops the running, queued, blocked and
// never-started threads, each unwinds its defers without resuming its body,
// and the goroutine count returns to its baseline.
func TestBodyPanicStopsEveryThread(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	const threads = 8
	var unwound, resumed [threads]bool
	const late = threads - 2 // starts after the fault: never runs
	for i := 0; i < threads-1; i++ {
		i := i
		start := Time(i % 3)
		if i == late {
			start = 1000
		}
		e.Spawn(fmt.Sprintf("t%d", i), start, func(c *Ctx) {
			defer func() { unwound[i] = true }()
			if i == 0 {
				c.Block() // blocked when the fault hits
			}
			for k := 0; k < 100; k++ {
				c.Advance(1)
				c.Sync()
			}
			resumed[i] = true
		})
	}
	e.Spawn("faulty", 1, func(c *Ctx) {
		c.Advance(5)
		c.Sync()
		faultingFrame()
	})
	if _, ok := recoverRun(e).(*ThreadPanic); !ok {
		t.Fatal("Run did not panic with a *ThreadPanic")
	}
	for i := 0; i < threads-1; i++ {
		if unwound[i] != (i != late) || resumed[i] {
			t.Errorf("thread t%d: unwound=%v ran to the end=%v", i, unwound[i], resumed[i])
		}
	}
	// A coroutine's goroutine exits as its function returns; poll briefly
	// in case the runtime reaps it after the switch back.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the recovered panic, %d before", n, base)
	}
}
