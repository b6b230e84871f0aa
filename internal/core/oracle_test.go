package core

import (
	"bytes"
	"fmt"
	"testing"

	"flextm/internal/cm"
	"flextm/internal/memory"
	"flextm/internal/oracle"
	"flextm/internal/sim"
	"flextm/internal/tmapi"
	"flextm/internal/tmesi"
)

// TestOracleCleanRuns attaches the serializability oracle to a contended
// transfer workload in both modes and requires a clean verdict: the
// unmodified protocol must produce serializable histories.
func TestOracleCleanRuns(t *testing.T) {
	for _, mode := range []Mode{Eager, Lazy} {
		t.Run(mode.String(), func(t *testing.T) {
			sys := tmesi.New(testCfg())
			rt := New(sys, mode, cm.NewPolka())
			orc := oracle.NewRecorder()
			rt.SetOracle(orc)

			const accounts, threads, rounds = 6, 4, 25
			lines := make([]memory.Addr, accounts)
			for i := range lines {
				lines[i] = sys.Alloc().Alloc(memory.LineWords)
				orc.SetInitial(lines[i], 0)
			}
			bodies := make([]func(th tmapi.Thread), threads)
			for i := 0; i < threads; i++ {
				id := i
				bodies[i] = func(th tmapi.Thread) {
					for n := 0; n < rounds; n++ {
						from := lines[(id+n)%accounts]
						to := lines[(id*3+n*5+1)%accounts]
						if from == to {
							to = lines[(id*3+n*5+2)%accounts]
						}
						th.Atomic(func(tx tmapi.Txn) {
							v := tx.Load(from)
							th.Work(50)
							tx.Store(from, v-1)
							tx.Store(to, tx.Load(to)+1)
						})
					}
				}
			}
			runThreads(t, rt, bodies...)

			var sum int64
			for _, a := range lines {
				sum += int64(sys.ReadWordRaw(a))
			}
			if sum != 0 {
				t.Fatalf("conservation broken: sum = %d", sum)
			}
			rep := oracle.Check(orc.History())
			if !rep.Ok() {
				var buf bytes.Buffer
				rep.Print(&buf)
				t.Fatalf("oracle flagged a clean %s run:\n%s", mode, buf.String())
			}
			if rep.Txns == 0 || rep.Reads == 0 || rep.Writes == 0 {
				t.Fatalf("oracle recorded nothing: %+v", rep)
			}
			if len(rep.Malformed) != 0 {
				t.Fatalf("malformed log from a live run: %v", rep.Malformed)
			}
		})
	}
}

// TestOracleCatchesDisabledWRAborts is the acceptance probe for the broken
// protocol variant: with SetWRAborts(false), a lazy committer spares the
// transactions that read its old values (skipping Figure 3, line 2), so a
// write-skew pair both commit against the initial snapshot. The oracle must
// flag the run; the stock protocol on the identical program must not.
func TestOracleCatchesDisabledWRAborts(t *testing.T) {
	run := func(broken bool) *oracle.Report {
		sys := tmesi.New(testCfg())
		rt := New(sys, Lazy, cm.NewPolka())
		rt.SetWRAborts(!broken)
		orc := oracle.NewRecorder()
		rt.SetOracle(orc)

		a := sys.Alloc().Alloc(memory.LineWords)
		b := sys.Alloc().Alloc(memory.LineWords)
		orc.SetInitial(a, 0)
		orc.SetInitial(b, 0)
		// Write skew: each thread reads the other's line, holds the
		// snapshot across a delay, then writes its own line from it.
		mk := func(rd, wr memory.Addr, hold sim.Time) func(th tmapi.Thread) {
			return func(th tmapi.Thread) {
				th.Atomic(func(tx tmapi.Txn) {
					v := tx.Load(rd)
					th.Work(hold)
					tx.Store(wr, v+1)
					th.Work(hold)
				})
			}
		}
		e := sim.NewEngine()
		for i, body := range []func(th tmapi.Thread){mk(a, b, 400), mk(b, a, 400)} {
			coreID, f := i, body
			e.Spawn(fmt.Sprintf("skew-%d", i), 0, func(ctx *sim.Ctx) { f(rt.Bind(ctx, coreID)) })
		}
		if blocked := e.Run(); blocked != 0 {
			t.Fatalf("%d threads blocked", blocked)
		}
		return oracle.Check(orc.History())
	}

	if rep := run(false); !rep.Ok() {
		var buf bytes.Buffer
		rep.Print(&buf)
		t.Fatalf("stock protocol flagged:\n%s", buf.String())
	}
	rep := run(true)
	if rep.Ok() {
		t.Fatal("oracle missed the disabled W-R abort protocol break")
	}
	var cyc *oracle.Violation
	for i := range rep.Violations {
		if rep.Violations[i].Kind == oracle.VCycle {
			cyc = &rep.Violations[i]
		}
	}
	if cyc == nil {
		t.Fatalf("no dsr-cycle among violations: %+v", rep.Violations)
	}
	if len(cyc.Witness) < 2 || len(cyc.Edges) < 2 {
		t.Fatalf("cycle witness too thin: %d txns, %d edges", len(cyc.Witness), len(cyc.Edges))
	}
	for _, e := range cyc.Edges {
		if e.CST == "" {
			t.Fatalf("edge %+v lacks a CST hint", e)
		}
	}
}
