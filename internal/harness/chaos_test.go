package harness

import (
	"reflect"
	"testing"

	"flextm/internal/fault"
	"flextm/internal/tmesi"
	"flextm/internal/workloads"
)

func smallChaosSpec() ChaosSpec {
	spec := DefaultChaosSpec()
	spec.Threads = 5
	spec.Rounds = 25
	spec.Rates = []float64{0.10}
	return spec
}

// TestChaosCampaignInvariants runs every fault class (including the
// preemption storm) at the acceptance rate and requires every invariant to
// hold in every cell, with no thread stuck past its liveness budget.
func TestChaosCampaignInvariants(t *testing.T) {
	res := ChaosCampaign(smallChaosSpec())
	for _, cell := range res.Cells {
		for _, v := range cell.Violations {
			t.Errorf("%s@%.2f/%s: %s", cell.Class, cell.Rate, cell.Mode, v)
		}
		if cell.Injected == 0 {
			t.Errorf("%s@%.2f/%s: class never fired", cell.Class, cell.Rate, cell.Mode)
		}
		if cell.Commits == 0 {
			t.Errorf("%s@%.2f/%s: no commits", cell.Class, cell.Rate, cell.Mode)
		}
	}
	if !res.Ok() {
		t.Fatalf("%d invariant violations", res.Violations)
	}
}

// TestChaosCampaignDeterministic: the same spec must reproduce the entire
// campaign bit-for-bit — fault schedules, abort counts, escalation
// decisions, and cycle counts.
func TestChaosCampaignDeterministic(t *testing.T) {
	spec := smallChaosSpec()
	a, b := ChaosCampaign(spec), ChaosCampaign(spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical campaigns diverged:\n  run1 = %+v\n  run2 = %+v", a, b)
	}
}

// TestRunWithFaults wires fault injection through the standard harness
// entry point: a faulty run must still verify its workload and report the
// injector's activity.
func TestRunWithFaults(t *testing.T) {
	f, _ := workloads.ByName("HashTable")
	res, err := Run(RunConfig{
		System:       FlexTMLazy,
		Workload:     f,
		Threads:      4,
		OpsPerThread: 50,
		Machine:      tmesi.DefaultConfig(),
		Verify:       true,
		Faults:       fault.Config{Seed: 5}.WithRate(fault.CommitRace, 0.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultReport == nil || res.FaultReport.Total == 0 {
		t.Fatalf("fault report missing or empty: %+v", res.FaultReport)
	}
	if res.Commits == 0 {
		t.Fatal("no commits under fault injection")
	}
}
