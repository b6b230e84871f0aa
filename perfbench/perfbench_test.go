package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"flextm/internal/harness"
	"flextm/internal/workloads"
)

// tinyWorkload is a small grid of the given kind for the tests that run
// perfbench end to end.
func tinyWorkload(kind string) workload {
	w := workload{name: "tiny-" + kind, grid: grid(flexTM, []string{"RBTree"}, 1, 4), ops: 10, warmup: 32}
	switch kind {
	case "postmortem":
		w.postmortem = true
		w.grid = grid(flexTM, []string{"RBTree"}, 4)
	case "replay":
		w.replay = true
		w.grid = grid([]harness.SystemName{harness.CGL, harness.FlexTMEager}, []string{"HashTable"}, 1, 4)
	}
	return w
}

func TestSeededAdapter(t *testing.T) {
	f, _ := workloads.ByName("RBTree")
	rc := harness.RunConfig{
		System: harness.FlexTMLazy, Workload: f, Threads: 4, OpsPerThread: 20, WarmupOps: 64,
		Machine: machine, Verify: true,
	}
	run := func(f workloads.Factory) harness.Result {
		t.Helper()
		rc.Workload = f
		res, err := harness.Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(f)
	zero := run(seededFactory(f, 0, nil))
	seven := run(seededFactory(f, 7, nil))
	traced := run(seededFactory(f, 7, newTracer(1)))
	if digestResult(zero, nil) != digestResult(plain, nil) {
		t.Error("seed 0 changed the simulated result of an unwrapped run")
	}
	if digestResult(seven, nil) == digestResult(plain, nil) {
		t.Error("seed 7 left the simulated result unchanged")
	}
	if digestResult(traced, nil) != digestResult(seven, nil) {
		t.Error("tracing changed the simulated result")
	}
	if zero.Workload != "RBTree" {
		t.Errorf("wrapped workload is named %q, want the paper name", zero.Workload)
	}
	if a, b := seededFactory(f, 1, nil).Name, seededFactory(f, 2, nil).Name; a == b {
		t.Errorf("factory names %q and %q do not carry the seed", a, b)
	}
}

func TestMetricNamesAndUnits(t *testing.T) {
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, units := range []map[string]string{e2eUnits, layerUnits} {
		for name, unit := range units {
			if !nameRe.MatchString(name) {
				t.Errorf("metric name %q", name)
			}
			if !unitRe.MatchString(unit) {
				t.Errorf("metric %s has unit %q", name, unit)
			}
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what   string
		listed []struct{ Name, Unit string }
		units  map[string]string
	}{{"end_to_end", spec.EndToEnd, e2eUnits}, {"per_layer", spec.PerLayer, layerUnits}} {
		if len(c.listed) != len(c.units) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, perfbench reports %d", len(c.listed), c.what, len(c.units))
		}
		for _, m := range c.listed {
			if c.units[m.Name] != m.Unit {
				t.Errorf("BENCHMARK.json %s metric %s has unit %q, perfbench reports %q", c.what, m.Name, m.Unit, c.units[m.Name])
			}
		}
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	if got, want := strings.Join(listed, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, perfbench has %s", got, want)
	}
}

func TestGoldensCoverEveryCell(t *testing.T) {
	for _, seed := range goldenSeeds {
		for _, w := range benchWorkloads() {
			g, err := loadGoldens("golden", w.name, seed)
			if err != nil || g == nil {
				t.Fatalf("seed %d %s: goldens %v, %v", seed, w.name, g, err)
			}
			var want []string
			for _, c := range w.grid {
				want = append(want, c.id())
			}
			if w.replay {
				want = append(want, plotsID)
			}
			var got []string
			for id := range g {
				got = append(got, id)
			}
			sort.Strings(want)
			sort.Strings(got)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("seed %d %s: golden cells\n%v\nwant\n%v", seed, w.name, got, want)
			}
		}
	}
}

// TestCountMetricsRepeat runs the traced run twice per kind of workload:
// every per-layer metric is present, no cell fails, and every simulated
// count repeats exactly.
func TestCountMetricsRepeat(t *testing.T) {
	for _, kind := range []string{"plain", "postmortem", "replay"} {
		t.Run(kind, func(t *testing.T) {
			var runs []result
			for i := 0; i < 2; i++ {
				b := &bench{w: tinyWorkload(kind), seed: 3, root: t.TempDir(), workers: 2}
				res, err := b.tracedRun(newHostInfo(b.root))
				if cerr := b.closeStore(); err == nil {
					err = cerr
				}
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 {
					t.Fatalf("%d of %d cells failed: %v", res.Failed, res.Attempted, b.errs)
				}
				runs = append(runs, res)
			}
			for name, unit := range layerUnits {
				a, ok := runs[0].Metrics[name]
				if !ok {
					t.Errorf("metric %s missing", name)
					continue
				}
				if (unit == "count" || unit == "cycles") && a != runs[1].Metrics[name] {
					t.Errorf("%s: %v then %v", name, a.Value, runs[1].Metrics[name].Value)
				}
			}
		})
	}
}

func TestCorruptGoldenFails(t *testing.T) {
	root := t.TempDir()
	w := tinyWorkload("plain")
	b := &bench{w: w, seed: 3, root: root, workers: 2, regen: true}
	if _, err := b.setup(0); err != nil {
		t.Fatal(err)
	}
	g := goldenFile{Seed: 3, Workloads: map[string]map[string]string{w.name: b.pass(passOpts{}).digests}}
	dir := filepath.Join(root, "perfbench", "golden")
	timed := func() result {
		t.Helper()
		if err := writeGoldens(dir, g); err != nil {
			t.Fatal(err)
		}
		b := &bench{w: w, seed: 3, root: root, workers: 2}
		res, err := b.timedRun(1)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := timed(); res.Failed != 0 || res.Metrics["ok_ratio"].Value != 1 {
		t.Fatalf("clean goldens: %d of %d cells failed", res.Failed, res.Attempted)
	}
	g.Workloads[w.name][w.grid[0].id()] = strings.Repeat("0", 24)
	if res := timed(); res.Failed == 0 || res.Metrics["ok_ratio"].Value == 1 {
		t.Fatalf("a corrupted golden digest went unnoticed: %d of %d cells failed", res.Failed, res.Attempted)
	}
}
