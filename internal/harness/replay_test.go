package harness

import (
	"testing"

	"flextm/internal/causal"
	"flextm/internal/fault"
	"flextm/internal/flightql"
	"flextm/internal/governor"
	"flextm/internal/replay"
	"flextm/internal/telemetry"
	"flextm/internal/tmesi"
	"flextm/internal/workloads"
)

// TestReplayIdentityWithLiveTelemetry is the replay acceptance test:
// folding the full end-of-run flight stream must land on exactly the live
// telemetry registry's values for every mirrored counter, per core, across
// seeds and both FlexTM modes. Any drift — a flight record without its
// counter, a counter without its record, a fold rule that miscounts —
// breaks the field-for-field identity. Runs under -race in CI's test job.
func TestReplayIdentityWithLiveTelemetry(t *testing.T) {
	f, ok := workloads.ByName("RBTree")
	if !ok {
		t.Fatal("RBTree workload missing")
	}
	for _, system := range []SystemName{FlexTMEager, FlexTMLazy} {
		for _, seed := range []uint64{1, 5, 9} {
			res, err := Run(RunConfig{
				System:       system,
				Workload:     f,
				Threads:      4,
				OpsPerThread: 60,
				Machine:      tmesi.DefaultConfig(),
				Metrics:      true,
				Flight:       true,
				// Deep rings: the identity only holds over the complete
				// stream, so wrap-around must be impossible for this run.
				FlightPerCore: 1 << 17,
				// A sprinkle of injected Bloom aliasing varies the conflict
				// schedule per seed and exercises the FP-bit paths.
				Faults: fault.Config{Seed: seed}.WithRate(fault.SigFalsePos, 0.02),
			})
			if err != nil {
				t.Fatalf("%s seed %d: %v", system, seed, err)
			}
			if n := res.Flight.Overwritten(); n != 0 {
				t.Fatalf("%s seed %d: %d records lost to wrap-around; deepen FlightPerCore", system, seed, n)
			}
			recs := res.Flight.Snapshot()
			st := replay.Final(recs, tmesi.DefaultConfig().Cores)
			if err := st.VerifyTelemetry(*res.Telemetry); err != nil {
				t.Fatalf("%s seed %d: %v", system, seed, err)
			}
			// Cross-check the replayed headline numbers against the
			// harness's own accounting.
			if got := st.CounterTotal(telemetry.CtrTxnCommits); got != res.Commits {
				t.Fatalf("%s seed %d: replayed commits %d, harness %d", system, seed, got, res.Commits)
			}
			if got := st.CounterTotal(telemetry.CtrTxnAborts); got != res.Aborts {
				t.Fatalf("%s seed %d: replayed aborts %d, harness %d", system, seed, got, res.Aborts)
			}
			// The -tracestats summary folds the same stream: its lifecycle
			// and conflict-handling counts are the live counters' totals.
			sum := causal.Analyze(recs, causal.Options{}).Summary(recs)
			tel := res.Telemetry
			for _, c := range []struct {
				name string
				got  int
				ctr  telemetry.Counter
			}{
				{"commits", sum.Commits, telemetry.CtrTxnCommits},
				{"aborts", sum.Aborts, telemetry.CtrTxnAborts},
				{"waits", sum.Waits, telemetry.CtrCMWait},
				{"self aborts", sum.SelfKills, telemetry.CtrCMAbortSelf},
			} {
				if want := tel.Total(c.ctr); uint64(c.got) != want {
					t.Fatalf("%s seed %d: summarized %s %d, telemetry %d", system, seed, c.name, c.got, want)
				}
			}
			if sum.Dropped != 0 || sum.OpenAtEnd != 0 || len(sum.Orphans) != 0 {
				t.Fatalf("%s seed %d: complete stream summarized as truncated: %+v", system, seed, sum)
			}
		}
	}
}

// TestReplayGovernorLevelMatchesGovernor: replaying a governed run's
// GovStep records reproduces the governor's own read-side view — final
// ladder level and transition count.
func TestReplayGovernorLevelMatchesGovernor(t *testing.T) {
	g := governor.New(GovernedLivelockConfig())
	_, out, err := GovernedLivelockProbe(1, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := replay.Final(out.Recs, 2)
	if st.GovLevel != g.Level() {
		t.Fatalf("replayed gov level %d, governor reports %d", st.GovLevel, g.Level())
	}
	if got, want := st.CounterTotal(telemetry.CtrGovStep), uint64(len(g.Transitions())); got != want {
		t.Fatalf("replayed %d governor steps, governor logged %d", got, want)
	}
	// The same invariants, stated as queries.
	flightql.Assert(t, out.Recs, "filter kind == governor-step | expect count >= 2")
}
