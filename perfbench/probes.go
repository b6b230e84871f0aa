package main

import (
	"sort"
	"time"

	"flextm/internal/cache"
	"flextm/internal/memory"
	"flextm/internal/signature"
	"flextm/internal/sim"
	"flextm/internal/tmesi"
)

// The layer probes call only public functions of the layers below tmapi,
// on the traced run's own recorded address stream. Until spans inside the
// program land, the shares derived from them are estimates.

// probeSink keeps probe results reachable so no timed call is elided.
var probeSink struct {
	line   *cache.Line
	member bool
	clock  time.Duration
}

// probeReps is how many times each probe repeats; it reports the median.
const probeReps = 3

// minProbe is the least host time one probe repetition measures.
const minProbe = 20 * time.Millisecond

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// repeat runs one probe repetition probeReps times and returns the median
// of its ns-per-unit results.
func repeat(rep func() float64) float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		xs[i] = rep()
	}
	return median(xs)
}

// batch times f over the whole input until minProbe has passed and
// returns ns per unit (f returns the units it did).
func batch(f func() int) float64 {
	var units int
	t0 := time.Now()
	for time.Since(t0) < minProbe {
		units += f()
	}
	if units == 0 {
		return 0
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(units)
}

// probeHandoff prices one sim.Ctx.Sync round trip with threads runnable
// threads: the engine handoff every simulated memory op pays.
func probeHandoff(threads int) float64 {
	const syncs = 1 << 15
	per := syncs / threads
	return repeat(func() float64 {
		e := sim.NewEngine()
		for i := 0; i < threads; i++ {
			e.Spawn("probe", 0, func(ctx *sim.Ctx) {
				for j := 0; j < per; j++ {
					ctx.Advance(1)
					ctx.Sync()
				}
			})
		}
		t0 := time.Now()
		e.Run()
		return float64(time.Since(t0).Nanoseconds()) / float64(per*threads)
	})
}

// probeClock prices one time.Now/time.Since pair, the per-op timer the
// TMESI probe subtracts.
func probeClock() float64 {
	return repeat(func() float64 {
		return batch(func() int {
			for i := 0; i < 1024; i++ {
				probeSink.clock += time.Since(time.Now())
			}
			return 1024
		})
	})
}

// tsw is the probe's transaction status word, far above any workload
// allocation.
const tsw = memory.Addr(1 << 40)

// probeTMESI replays the stream on a fresh machine with a one-thread
// engine, timing each op, and returns the mean ns of L1 hits and misses
// net of the engine handoff and the timer, both priced on the same engine
// just before the replay. Transactional accesses replay as TLoad/TStore
// inside BeginTxn ... CASCommit, the rest as Load/Store.
func probeTMESI(stream []streamOp) (hit, miss float64) {
	if len(stream) == 0 {
		return 0, 0
	}
	clock := probeClock()
	var hitNs, missNs []float64
	for r := 0; r < probeReps; r++ {
		sys := tmesi.New(machine)
		var hitSum, missSum, hits, misses, handoff float64
		e := sim.NewEngine()
		e.Spawn("probe", 0, func(ctx *sim.Ctx) {
			const syncs = 1 << 12
			t0 := time.Now()
			for i := 0; i < syncs; i++ {
				ctx.Sync()
			}
			handoff = float64(time.Since(t0).Nanoseconds()) / syncs
			inTx := false
			commit := func() {
				if inTx {
					sys.CASCommit(ctx, 0, tsw, 1, 2)
					inTx = false
				}
			}
			for _, op := range stream {
				if op.kind == streamBegin {
					commit()
					if op.tx {
						sys.Store(ctx, 0, tsw, 1)
						sys.BeginTxn(0)
						inTx = true
					}
					continue
				}
				l1Hits := sys.Stats().L1Hits
				t0 := time.Now()
				switch {
				case op.tx && inTx && op.kind == streamLoad:
					sys.TLoad(ctx, 0, op.addr)
				case op.tx && inTx:
					sys.TStore(ctx, 0, op.addr, 1)
				case op.kind == streamLoad:
					sys.Load(ctx, 0, op.addr)
				default:
					sys.Store(ctx, 0, op.addr, 1)
				}
				d := float64(time.Since(t0).Nanoseconds())
				if sys.Stats().L1Hits > l1Hits {
					hitSum, hits = hitSum+d, hits+1
				} else {
					missSum, misses = missSum+d, misses+1
				}
			}
			commit()
		})
		e.Run()
		if hits > 0 {
			hitNs = append(hitNs, hitSum/hits-handoff-clock)
		}
		if misses > 0 {
			missNs = append(missNs, missSum/misses-handoff-clock)
		}
	}
	return median(hitNs), median(missNs)
}

// streamLines returns the stream's accessed lines in order.
func streamLines(stream []streamOp) []memory.LineAddr {
	var out []memory.LineAddr
	for _, op := range stream {
		if op.kind != streamBegin {
			out = append(out, op.addr.Line())
		}
	}
	return out
}

// probeLookup prices cache.Cache.Lookup on the L1 geometry over the
// stream's lines, after one pass that inserts every miss.
func probeLookup(lines []memory.LineAddr) float64 {
	if len(lines) == 0 {
		return 0
	}
	c := cache.New(machine.L1)
	for _, l := range lines {
		if c.Lookup(l) == nil {
			c.Insert(cache.Line{Tag: l, State: cache.Shared})
		}
	}
	return repeat(func() float64 {
		return batch(func() int {
			for _, l := range lines {
				probeSink.line = c.Lookup(l)
			}
			return len(lines)
		})
	})
}

// probeFlashCommit prices cache.Cache.FlashCommit on the L1 geometry with
// writeSet TMI lines resident.
func probeFlashCommit(writeSet int) float64 {
	if writeSet <= 0 {
		return 0
	}
	if max := machine.L1.Sets * machine.L1.Ways; writeSet > max {
		writeSet = max
	}
	c := cache.New(machine.L1)
	lines := make([]memory.LineAddr, writeSet)
	for i := range lines {
		lines[i] = memory.LineAddr(i)
		c.Insert(cache.Line{Tag: lines[i], State: cache.TMI})
	}
	return repeat(func() float64 {
		var total time.Duration
		n := 0
		for total < minProbe {
			for _, l := range lines {
				c.Lookup(l).State = cache.TMI
			}
			t0 := time.Now()
			c.FlashCommit()
			total += time.Since(t0)
			n++
		}
		return float64(total.Nanoseconds()) / float64(n)
	})
}

// probeSignature prices signature.Sig Insert and Member over the stream's
// lines on the machine's signature geometry.
func probeSignature(lines []memory.LineAddr) (insert, member float64) {
	if len(lines) == 0 {
		return 0, 0
	}
	s := signature.New(machine.Sig)
	insert = repeat(func() float64 {
		return batch(func() int {
			s.Clear()
			for _, l := range lines {
				s.Insert(l)
			}
			return len(lines)
		})
	})
	member = repeat(func() float64 {
		return batch(func() int {
			for _, l := range lines {
				probeSink.member = s.Member(l)
			}
			return len(lines)
		})
	})
	return insert, member
}
