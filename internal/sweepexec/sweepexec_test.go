package sweepexec

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapEmitsInOrder: whatever the worker count, emit sees every index
// exactly once, in strictly increasing order, with the matching value.
func TestMapEmitsInOrder(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8, 100} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			const n = 200
			next := 0
			err := Map(Exec{Workers: w}, n,
				func(i int) (int, error) {
					// Finish later cells faster so out-of-order completion is
					// the common case, not a fluke.
					if i%7 == 0 {
						runtime.Gosched()
					}
					return i * i, nil
				},
				func(i, v int) error {
					if i != next {
						t.Errorf("emit(%d) out of order, want %d", i, next)
					}
					if v != i*i {
						t.Errorf("emit(%d) = %d, want %d", i, v, i*i)
					}
					next++
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if next != n {
				t.Fatalf("emitted %d of %d cells", next, n)
			}
		})
	}
}

// TestMapSharedSinkNeedsNoLocking: emit writes to a plain shared slice and
// map with no synchronization of its own. Run under -race, this pins the
// contract that emit is serialized on the calling goroutine.
func TestMapSharedSinkNeedsNoLocking(t *testing.T) {
	const n = 500
	var sink []int
	seen := map[int]bool{}
	err := Map(Exec{Workers: 8}, n,
		func(i int) (int, error) { return i, nil },
		func(i, v int) error {
			sink = append(sink, v)
			seen[v] = true
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(sink) != n || len(seen) != n {
		t.Fatalf("sink %d, seen %d, want %d", len(sink), len(seen), n)
	}
}

// TestMapReturnsLowestIndexError: several cells fail; Map reports the
// error the serial loop would have hit first, and emit stops before it.
func TestMapReturnsLowestIndexError(t *testing.T) {
	for _, w := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			boom := func(i int) error { return fmt.Errorf("cell %d failed", i) }
			var emitted []int
			err := Map(Exec{Workers: w}, 64,
				func(i int) (int, error) {
					if i == 9 || i == 33 || i == 50 {
						return 0, boom(i)
					}
					return i, nil
				},
				func(i, v int) error { emitted = append(emitted, i); return nil })
			if err == nil || err.Error() != "cell 9 failed" {
				t.Fatalf("err = %v, want cell 9's", err)
			}
			for _, i := range emitted {
				if i >= 9 {
					t.Fatalf("emitted cell %d at/after the failed cell", i)
				}
			}
		})
	}
}

// TestMapEmitErrorStopsSweep: an emit failure aborts the sweep with that
// error and no further emissions.
func TestMapEmitErrorStopsSweep(t *testing.T) {
	sentinel := errors.New("sink full")
	for _, w := range []int{1, 8} {
		var emitted int
		err := Map(Exec{Workers: w}, 100,
			func(i int) (int, error) { return i, nil },
			func(i, v int) error {
				if i == 5 {
					return sentinel
				}
				emitted++
				return nil
			})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want sentinel", w, err)
		}
		if emitted != 5 {
			t.Fatalf("workers=%d: emitted %d cells, want 5", w, emitted)
		}
	}
}

// TestMapStopMidSweep: closing Stop mid-run yields ErrStopped, and the
// cells emitted before the stop are a clean prefix.
func TestMapStopMidSweep(t *testing.T) {
	for _, w := range []int{1, 4} {
		stop := make(chan struct{})
		next := 0
		err := Map(Exec{Workers: w, Stop: stop}, 1000,
			func(i int) (int, error) {
				if i == 20 {
					close(stop)
				}
				return i, nil
			},
			func(i, v int) error {
				if i != next {
					t.Fatalf("workers=%d: emit(%d) out of order", w, i)
				}
				next++
				return nil
			})
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("workers=%d: err = %v, want ErrStopped", w, err)
		}
		if next >= 1000 {
			t.Fatalf("workers=%d: sweep ran to completion despite stop", w)
		}
	}
}

// TestMapStopAtCompletion: a Stop that closes only as the final cell is
// emitted reports a complete sweep (nil), not ErrStopped — matching the
// serial loop, which polls the channel only before running a cell. This
// is the SIGINT-lands-as-the-sweep-finishes path: paperbench must not
// label a complete bench artifact as partial and exit 130.
func TestMapStopAtCompletion(t *testing.T) {
	const n = 50
	for _, w := range []int{1, 4} {
		stop := make(chan struct{})
		emitted := 0
		err := Map(Exec{Workers: w, Stop: stop}, n,
			func(i int) (int, error) { return i, nil },
			func(i, v int) error {
				emitted++
				if i == n-1 {
					close(stop)
				}
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: err = %v for a completed sweep", w, err)
		}
		if emitted != n {
			t.Fatalf("workers=%d: emitted %d of %d cells", w, emitted, n)
		}
	}
}

// TestMapStopBeforeStart: an already-closed Stop runs nothing.
func TestMapStopBeforeStart(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	var ran atomic.Int64
	err := Map(Exec{Workers: 4, Stop: stop}, 50,
		func(i int) (int, error) { ran.Add(1); return i, nil },
		nil)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d cells ran after pre-closed stop", ran.Load())
	}
}

// TestMapPanicPropagates: a worker panic resurfaces on the calling
// goroutine with the original value, after the pool has drained.
func TestMapPanicPropagates(t *testing.T) {
	for _, w := range []int{1, 8} {
		func() {
			defer func() {
				pv := recover()
				if pv != "cell 13 exploded" {
					t.Fatalf("workers=%d: recovered %v", w, pv)
				}
			}()
			_ = Map(Exec{Workers: w}, 64,
				func(i int) (int, error) {
					if i == 13 {
						panic("cell 13 exploded")
					}
					return i, nil
				}, nil)
			t.Fatalf("workers=%d: Map returned instead of panicking", w)
		}()
	}
}

// TestMapLeaksNoGoroutines: the pool joins every worker before returning,
// on the success, error, stop, and panic paths alike.
func TestMapLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	// Success path.
	_ = Map(Exec{Workers: 8}, 200, func(i int) (int, error) { return i, nil }, nil)
	// Error path.
	_ = Map(Exec{Workers: 8}, 200, func(i int) (int, error) {
		if i == 50 {
			return 0, errors.New("x")
		}
		return i, nil
	}, nil)
	// Stop path.
	stop := make(chan struct{})
	_ = Map(Exec{Workers: 8, Stop: stop}, 200, func(i int) (int, error) {
		if i == 10 {
			close(stop)
		}
		return i, nil
	}, nil)
	// Panic path.
	func() {
		defer func() { _ = recover() }()
		_ = Map(Exec{Workers: 8}, 200, func(i int) (int, error) { panic("x") }, nil)
	}()
	// The runtime needs a moment to retire exited goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after maps", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestMapZeroAndNegativeCells: degenerate grids are a no-op.
func TestMapZeroAndNegativeCells(t *testing.T) {
	for _, n := range []int{0, -3} {
		called := false
		err := Map(Exec{Workers: 4}, n,
			func(i int) (int, error) { called = true; return 0, nil },
			func(i, v int) error { called = true; return nil })
		if err != nil || called {
			t.Fatalf("n=%d: err=%v called=%v", n, err, called)
		}
	}
}

// TestWorkersResolution: worker-count clamping.
func TestWorkersResolution(t *testing.T) {
	cases := []struct{ workers, n, want int }{
		{1, 10, 1},
		{4, 10, 4},
		{4, 2, 2}, // never more workers than cells
		{0, 10, runtime.GOMAXPROCS(0)},
		{-1, 10, runtime.GOMAXPROCS(0)},
		{8, 0, 1}, // empty grid still resolves to a sane pool
	}
	for _, c := range cases {
		e := Exec{Workers: c.workers}
		got := e.workers(c.n)
		want := c.want
		if want > c.n && c.n >= 1 {
			want = c.n
		}
		if got != want {
			t.Errorf("Exec{Workers:%d}.workers(%d) = %d, want %d", c.workers, c.n, got, want)
		}
	}
}
