// Package sweepexec is the parallel sweep engine: it shards a grid of
// fully independent, deterministic simulation cells across a bounded pool
// of OS-thread-backed goroutines while delivering every result to the
// caller in submission order. Because each cell of a paper sweep is a
// seeded, byte-stable simulation with no shared state, parallel execution
// is free of nondeterminism: the only ordered things in a sweep are the
// result callbacks, and Map serializes exactly those. A sweep run on one
// worker and one run on N produce byte-identical artifacts — the contract
// pinned by identity_test.go.
//
// This package is the one place that sizes the pool: the zero Exec runs
// runtime.GOMAXPROCS(0) workers, so GOMAXPROCS=1 is how a caller gets a
// serial sweep. No sweep-level option duplicates that setting.
//
// The shape is deliberate: workers *compute*, the calling goroutine
// *emits*. Progress sinks, bench-artifact recorders, and -json encoders
// never need their own locking, and the emitted stream is the serial
// stream.
package sweepexec

import (
	"errors"
	"runtime"
	"sync"
)

// ErrStopped is returned by Map when the Exec's Stop channel closed before
// every cell ran. Results completed before the stop were already emitted in
// order, so callers can flush partial artifacts (the SIGINT path of
// cmd/paperbench).
var ErrStopped = errors.New("sweepexec: sweep stopped")

// Exec configures one sweep execution.
type Exec struct {
	// Workers is the number of concurrent cells: 1 runs serially on the
	// calling goroutine (no pool, bit-for-bit the classic loop), <= 0
	// selects GOMAXPROCS. The harness sweeps leave it zero; only callers
	// that pin a pool size for measurement set it.
	Workers int
	// Stop, when non-nil, cancels the sweep once closed: no new cells are
	// scheduled, in-flight cells finish and are emitted if contiguous, and
	// Map returns ErrStopped.
	Stop <-chan struct{}
}

// workers resolves the pool size for a grid of n cells.
func (e Exec) workers(n int) int {
	w := e.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// stopped polls the cancellation channel.
func (e Exec) stopped() bool {
	select {
	case <-e.Stop:
		return true
	default:
		return false
	}
}

// slot is one cell's parked outcome, waiting for in-order emission.
type slot[T any] struct {
	v    T
	err  error
	pv   any // recovered panic value
	pan  bool
	done bool
}

// Map runs fn(i) for every i in [0, n) on the pool and calls emit(i, v) in
// strictly increasing i order on the calling goroutine. fn must be safe to
// call concurrently from multiple goroutines; emit never is called
// concurrently and never out of order, so it may touch shared sinks freely.
// emit may be nil.
//
// Error semantics match the serial loop: the returned error is the
// lowest-index fn error (cells after it may have executed — they are
// side-effect-free simulations — but were not emitted), or the first emit
// error. A panic in fn resurfaces on the calling goroutine after the pool
// drains. All goroutines are joined before Map returns, whatever the path
// out.
func Map[T any](e Exec, n int, fn func(int) (T, error), emit func(int, T) error) error {
	if n <= 0 {
		return nil
	}
	if e.workers(n) == 1 {
		return mapSerial(e, n, fn, emit)
	}
	return mapParallel(e, n, fn, emit)
}

// mapSerial is the Workers=1 fast path: no goroutines, no locks, identical
// control flow to the classic nested sweep loop.
func mapSerial[T any](e Exec, n int, fn func(int) (T, error), emit func(int, T) error) error {
	for i := 0; i < n; i++ {
		if e.stopped() {
			return ErrStopped
		}
		v, err := fn(i)
		if err != nil {
			return err
		}
		if emit != nil {
			if err := emit(i, v); err != nil {
				return err
			}
		}
	}
	return nil
}

func mapParallel[T any](e Exec, n int, fn func(int) (T, error), emit func(int, T) error) error {
	var (
		mu     sync.Mutex
		cond   = sync.NewCond(&mu)
		slots  = make([]slot[T], n)
		next   int  // next index to hand to a worker
		halt   bool // stop scheduling (error, panic, emit failure, or Stop)
		active int  // workers still running
		wg     sync.WaitGroup
	)
	w := e.workers(n)
	active = w
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				mu.Lock()
				active--
				cond.Broadcast()
				mu.Unlock()
			}()
			for {
				mu.Lock()
				if halt || next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				if e.stopped() {
					// i was claimed but will never run: the hole makes the
					// collector stop at the completed prefix.
					mu.Lock()
					halt = true
					cond.Broadcast()
					mu.Unlock()
					return
				}
				s := runCell(fn, i)
				mu.Lock()
				slots[i] = s
				if s.err != nil || s.pan {
					halt = true
				}
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}

	// Collector: the calling goroutine emits the contiguous done prefix.
	var firstErr error
	stoppedEarly := false
	mu.Lock()
	for i := 0; i < n; i++ {
		for !slots[i].done && active > 0 {
			cond.Wait()
		}
		if !slots[i].done {
			// A hole: scheduling halted before cell i ran (Stop, or an
			// earlier-index error already captured below).
			stoppedEarly = true
			break
		}
		s := slots[i]
		if s.pan || s.err != nil {
			firstErr = s.err
			if s.pan {
				// Re-panic after the pool drains, with the original value.
				mu.Unlock()
				wg.Wait()
				panic(s.pv)
			}
			break
		}
		if emit != nil {
			mu.Unlock()
			err := emit(i, s.v)
			mu.Lock()
			if err != nil {
				firstErr = err
				halt = true
				break
			}
		}
	}
	halt = true
	cond.Broadcast()
	mu.Unlock()
	wg.Wait()

	switch {
	case firstErr != nil:
		return firstErr
	case stoppedEarly:
		// ErrStopped only when a cell actually went unrun: a Stop that
		// closes after the last cell was emitted is a complete sweep,
		// exactly as the serial loop (which polls only before running a
		// cell) would report it.
		return ErrStopped
	}
	return nil
}

// runCell invokes one cell, converting a panic into a parked value so the
// collector can resurface it on the caller's stack.
func runCell[T any](fn func(int) (T, error), i int) (s slot[T]) {
	defer func() {
		s.done = true
		if pv := recover(); pv != nil {
			s.pan, s.pv = true, pv
		}
	}()
	s.v, s.err = fn(i)
	return
}
