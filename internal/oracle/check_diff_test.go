package oracle_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"flextm/internal/core"
	"flextm/internal/fault"
	"flextm/internal/harness"
	"flextm/internal/oracle"
	"flextm/internal/sim"
	"flextm/internal/stress"
	"flextm/internal/tmesi"
	"flextm/internal/workloads"
)

// diffCaps are the witness caps every comparison runs at: a cap of one
// stops materializing early, 1000 materializes every violation.
var diffCaps = []int{1, 4, 1000}

// sameReport fails t unless Check, and orc's in-place Check when orc is
// not nil, marshal to the parent checker's bytes on h at every cap.
func sameReport(t *testing.T, name string, h oracle.History, orc *oracle.Recorder) {
	t.Helper()
	for _, max := range diffCaps {
		opt := oracle.Options{MaxViolations: max}
		want := marshal(t, oracle.RefCheck(h, opt))
		if got := marshal(t, oracle.Check(h, opt)); !bytes.Equal(got, want) {
			t.Fatalf("%s, MaxViolations %d: report differs from the parent checker\n got: %s\nwant: %s", name, max, got, want)
		}
		if orc == nil {
			continue
		}
		if got := marshal(t, orc.Check(opt)); !bytes.Equal(got, want) {
			t.Fatalf("%s, MaxViolations %d: Recorder.Check differs from the parent checker\n got: %s\nwant: %s", name, max, got, want)
		}
	}
}

func marshal(t *testing.T, rep *oracle.Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckMatchesParentChecker holds the checker to byte-identical
// reports against the parent checker (refcheck_test.go) on random streams,
// the fuzz corpus, live harness cells and broken-protocol stress runs.
func TestCheckMatchesParentChecker(t *testing.T) {
	t.Run("streams", func(t *testing.T) {
		n := 20000
		if oracle.RaceEnabled {
			n = 2000
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < n; i++ {
			data := make([]byte, rng.Intn(160))
			rng.Read(data)
			if i%2 == 1 {
				// Every other stream uses four cores, two addresses and
				// two values, so transactions re-read what they read and
				// stale reads repeat: the regime where edges recur.
				for j := range data {
					data[j] &= [2]byte{0xE3, 0x11}[j%2]
				}
			}
			sameReport(t, fmt.Sprintf("stream %d", i), oracle.DecodeHistory(data), nil)
		}
	})
	t.Run("corpus", func(t *testing.T) {
		files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "*", "*"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no fuzz corpus: %v", err)
		}
		for _, f := range files {
			sameReport(t, f, oracle.DecodeHistory(corpusBytes(t, f)), nil)
		}
	})
	t.Run("harness", func(t *testing.T) {
		if oracle.RaceEnabled {
			t.Skip("live cells under -race take minutes; the streams cover the checker")
		}
		for _, c := range []struct {
			workload string
			system   harness.SystemName
			threads  int
		}{
			{"RandomGraph", harness.FlexTMLazy, 16},
			{"RBTree", harness.FlexTMEager, 8},
			{"HashTable", harness.FlexTMLazy, 4},
			{"Vacation-High", harness.FlexTMEager, 4},
			{"LFUCache", harness.FlexTMLazy, 8},
		} {
			name := fmt.Sprintf("%s/%s/%d", c.workload, c.system, c.threads)
			orc := recordCell(t, c.workload, c.system, c.threads, postmortemOps)
			sameReport(t, name, orc.History(), orc)
		}
	})
	t.Run("stress", func(t *testing.T) {
		seeds := uint64(100)
		if oracle.RaceEnabled {
			seeds = 4
		}
		for seed := uint64(1); seed <= seeds; seed++ {
			for _, mode := range []core.Mode{core.Eager, core.Lazy} {
				cfg := stress.DefaultConfig(seed)
				cfg.Mode, cfg.BreakWR = mode, true
				cfg.TinyCache = seed%3 == 0
				if seed%4 == 1 {
					cfg.Faults = fault.Config{}.WithRate(fault.SigFalsePos, 0.2)
				}
				_, orc := stress.Record(cfg)
				sameReport(t, cfg.Schedule(), orc.History(), orc)
			}
		}
	})
}

// corpusBytes decodes one "go test fuzz v1" corpus file holding a []byte.
func corpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if lit, ok := strings.CutPrefix(line, "[]byte("); ok {
			s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			return []byte(s)
		}
	}
	t.Fatalf("%s: no []byte value", path)
	return nil
}

// postmortemOps is the per-thread operation count of a perfbench
// postmortem cell: 60 timed operations after a 256-operation warm-up split
// over 16 threads.
const postmortemOps = 60 + 256/16

// recordCell runs ops operations per thread of one FlexTM cell with the
// oracle attached and returns the recorder.
func recordCell(tb testing.TB, workload string, system harness.SystemName, threads, ops int) *oracle.Recorder {
	tb.Helper()
	f, ok := workloads.ByName(workload)
	if !ok {
		tb.Fatalf("no workload %q", workload)
	}
	sys := tmesi.New(tmesi.DefaultConfig())
	rt, err := harness.NewRuntime(system, sys)
	if err != nil {
		tb.Fatal(err)
	}
	orc := oracle.NewRecorder()
	rt.(*core.Runtime).SetOracle(orc)
	w := f.New()
	w.Setup(&workloads.Env{Image: sys.Image(), Alloc: sys.Alloc(), Raw: sys.ReadWordRaw})
	e := sim.NewEngine()
	for i := 0; i < threads; i++ {
		id := i
		e.Spawn(fmt.Sprintf("%s-%d", workload, id), 0, func(ctx *sim.Ctx) {
			th := rt.Bind(ctx, id)
			for j := 0; j < ops; j++ {
				w.Op(th)
			}
		})
	}
	if blocked := e.Run(); blocked != 0 {
		tb.Fatalf("%s: %d threads blocked", workload, blocked)
	}
	return orc
}

// FuzzCheckMatchesParentChecker is the streams part of
// TestCheckMatchesParentChecker for deeper runs:
//
//	go test -run '^$' -fuzz FuzzCheckMatchesParentChecker ./internal/oracle
func FuzzCheckMatchesParentChecker(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x40, 0x17, 0x20, 0x17, 0x60, 0x00, 0x01, 0x00, 0x21, 0x17, 0x61, 0x00})
	f.Add([]byte{0x00, 0x00, 0x40, 0xA5, 0x20, 0xA5, 0x60, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		sameReport(t, "fuzz input", oracle.DecodeHistory(data), nil)
	})
}

// benchLog is the recorded FlexTM(Lazy) RandomGraph 16-thread cell both
// checker benchmarks run on.
var (
	benchOnce sync.Once
	benchLog  *oracle.Recorder
)

func benchmarkChecker(b *testing.B, check func(oracle.History, oracle.Options) *oracle.Report) {
	benchOnce.Do(func() { benchLog = recordCell(b, "RandomGraph", harness.FlexTMLazy, 16, postmortemOps) })
	h := benchLog.History()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := check(h, oracle.Options{}); !rep.Ok() {
			b.Fatal("live history flagged")
		}
	}
	b.ReportMetric(float64(len(h.Ops)), "ops")
}

// BenchmarkCheck and BenchmarkCheckParent price the checker and the parent
// checker on the same live history (about 75k ops, a perfbench postmortem
// cell).
func BenchmarkCheck(b *testing.B)       { benchmarkChecker(b, oracle.Check) }
func BenchmarkCheckParent(b *testing.B) { benchmarkChecker(b, oracle.RefCheck) }
