package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"flextm/internal/benchfmt"
)

// syncBuffer is an output stream a test can read while run still writes it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// output is one in-process run of the command.
type output struct {
	code           int
	stdout, stderr string
}

// withProcs runs fn at GOMAXPROCS n, and so on n sweep workers, then
// restores the old setting. The setting is process-wide: only sequential
// tests may call it.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

func paperbenchRun(args ...string) output {
	var out, errb bytes.Buffer
	code := run(args, &out, &errb, nil)
	return output{code, out.String(), errb.String()}
}

// mustRun runs the command and fails the test unless it exits 0.
func mustRun(t *testing.T, args ...string) output {
	t.Helper()
	o := paperbenchRun(args...)
	if o.code != 0 {
		t.Fatalf("paperbench %q exited %d\nstdout:\n%s\nstderr:\n%s", args, o.code, o.stdout, o.stderr)
	}
	return o
}

// readFile returns path's contents, failing the test if it cannot.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestExitStatus pins the exit status of each kind of outcome: usage
// errors, a failed -compare argument check, and a run the harness rejects.
func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		errs string
	}{
		{nil, 2, "Usage of paperbench:"},
		{[]string{"-h"}, 0, "Usage of paperbench:"},
		{[]string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
		{[]string{"-compare", "../../BENCH_baseline.json"}, 1, "-compare needs exactly two artifact paths, got 1"},
		{[]string{"-table", "2"}, 0, ""},
		// A negative op count once ran no ops and emitted a negative
		// throughput.
		{[]string{"-fig", "5", "-threads", "2", "-ops", "-5", "-json"}, 1, "harness: negative op count"},
	} {
		o := paperbenchRun(tc.args...)
		if o.code != tc.code || !strings.Contains(o.stderr, tc.errs) || strings.Contains(o.stdout, "throughput") {
			t.Errorf("paperbench %q: exit %d, want %d with stderr containing %q\nstdout:\n%s\nstderr:\n%s",
				tc.args, o.code, tc.code, tc.errs, o.stdout, o.stderr)
		}
	}
}

// TestFigure4Sweeps runs the quick Figure 4 sweep four times — at
// GOMAXPROCS 1 (serial) and 4, each against a cold and then a warm cell
// cache — and checks the determinism contract, the cache and the
// checked-in baseline on those runs.
func TestFigure4Sweeps(t *testing.T) {
	if raceEnabled {
		t.Skip("four quick Figure 4 sweeps; the sweep identity tests in internal/sweepexec cover the pool under -race")
	}
	dir := t.TempDir()
	sweep := func(name, cache string, procs int) (o output, art []byte) {
		t.Helper()
		runDir := filepath.Join(dir, name)
		if err := os.Mkdir(runDir, 0o755); err != nil {
			t.Fatal(err)
		}
		withProcs(procs, func() {
			o = mustRun(t, "-quick", "-fig", "4", "-metrics", "-json",
				"-bench-out", filepath.Join(runDir, "BENCH.json"), "-cache", filepath.Join(dir, cache))
		})
		// The artifact path is the only thing that differs between runs.
		o.stderr = strings.ReplaceAll(o.stderr, runDir, "RUN")
		return o, readFile(t, filepath.Join(runDir, "BENCH.json"))
	}
	serial, serialArt := sweep("serial", "cache", 1)
	par, parArt := sweep("parallel", "cache-par", 4)
	warm, warmArt := sweep("warm", "cache", 1)
	warmPar, warmParArt := sweep("warm-parallel", "cache", 4)

	t.Run("ParallelMatchesSerial", func(t *testing.T) {
		if !bytes.Equal(serialArt, parArt) {
			t.Error("bench artifacts differ")
		}
		if serial.stdout != par.stdout {
			t.Error("-json streams differ")
		}
		if serial.stderr != par.stderr {
			t.Errorf("tables differ\nserial:\n%s\nparallel:\n%s", serial.stderr, par.stderr)
		}
	})
	t.Run("JSONStreamParses", func(t *testing.T) {
		checkJSONLines(t, serial.stdout)
	})
	t.Run("WarmCacheReplays", func(t *testing.T) {
		for _, cold := range []output{serial, par} {
			if !strings.Contains(cold.stderr, " 0 hits,") {
				t.Errorf("cold run hit the cache:\n%s", cold.stderr)
			}
		}
		for _, w := range []struct {
			o   output
			art []byte
		}{{warm, warmArt}, {warmPar, warmParArt}} {
			if !strings.Contains(w.o.stderr, " 0 misses ") {
				t.Errorf("warm run missed the cache:\n%s", w.o.stderr)
			}
			if !bytes.Equal(w.art, serialArt) || w.o.stdout != serial.stdout {
				t.Error("warm run's artifact or -json stream differs from the cold run's")
			}
		}
	})
	t.Run("MatchesBaseline", func(t *testing.T) {
		// The simulator is deterministic, so any drift from the checked-in
		// baseline is a behaviour change. After a deliberate one, regenerate
		// the baseline with the command in its label.
		base, err := benchfmt.ReadFile("../../BENCH_baseline.json")
		if err != nil {
			t.Fatal(err)
		}
		var got benchfmt.Artifact
		if err := json.Unmarshal(serialArt, &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Cells) != len(base.Cells) {
			t.Fatalf("%d cells, baseline has %d", len(got.Cells), len(base.Cells))
		}
		for i := range got.Cells {
			if !reflect.DeepEqual(got.Cells[i], base.Cells[i]) {
				t.Errorf("cell %d differs from the baseline:\n got %+v\nwant %+v", i, got.Cells[i], base.Cells[i])
			}
		}
	})
	t.Run("CompareFlagsRegression", func(t *testing.T) {
		art := filepath.Join(dir, "serial", "BENCH.json")
		mustRun(t, "-compare", "../../BENCH_baseline.json", art, "-threshold", "0.10")
		// Halve every cell's throughput: far past the 10% threshold.
		var a benchfmt.Artifact
		if err := json.Unmarshal(serialArt, &a); err != nil {
			t.Fatal(err)
		}
		for i := range a.Cells {
			a.Cells[i].Throughput /= 2
		}
		worse := filepath.Join(dir, "worse.json")
		if err := a.WriteFile(worse); err != nil {
			t.Fatal(err)
		}
		if o := paperbenchRun("-compare", "../../BENCH_baseline.json", worse); o.code != 1 {
			t.Fatalf("-compare against a halved artifact exited %d, want 1\n%s%s", o.code, o.stdout, o.stderr)
		}
	})
}

// checkJSONLines fails unless s is one or more lines of JSON objects.
func checkJSONLines(t *testing.T, s string) {
	t.Helper()
	n := 0
	for sc := bufio.NewScanner(strings.NewReader(s)); sc.Scan(); n++ {
		if !json.Valid(sc.Bytes()) {
			t.Fatalf("line %d is not JSON: %s", n+1, sc.Text())
		}
	}
	if n == 0 {
		t.Fatal("no JSON lines")
	}
}

// TestSignatureFigureJSON: -json emits one parsable object per data point.
func TestSignatureFigureJSON(t *testing.T) {
	checkJSONLines(t, mustRun(t, "-quick", "-fig", "sig", "-json").stdout)
}

// TestCampaignVerdicts: each campaign's exit status is its verdict. The
// chaos campaign fails on any invariant or serializability violation, the
// oracle sweep when the clean protocol fails or the broken variant escapes,
// and the soak when a governed cell does not converge.
func TestCampaignVerdicts(t *testing.T) {
	for _, args := range [][]string{
		{"-quick", "-fig", "chaos", "-json"},
		{"-quick", "-fig", "oracle"},
		{"-quick", "-fig", "govern", "-json"},
	} {
		mustRun(t, args...)
	}
}

// TestCausalFigureParallelMatchesSerial: the causal sweep's table and
// artifact, critical-path digests included, are the same at GOMAXPROCS 1
// and 4.
func TestCausalFigureParallelMatchesSerial(t *testing.T) {
	if raceEnabled {
		t.Skip("pure byte comparison, ~15x slower under the detector")
	}
	dir := t.TempDir()
	var outs []string
	var arts [][]byte
	for _, procs := range []int{1, 4} {
		art := filepath.Join(dir, "BENCH.json")
		withProcs(procs, func() {
			outs = append(outs, mustRun(t, "-quick", "-fig", "causal", "-bench-out", art).stdout)
		})
		arts = append(arts, readFile(t, art))
	}
	if outs[0] != outs[1] || !bytes.Equal(arts[0], arts[1]) {
		t.Fatalf("GOMAXPROCS 1 and 4 differ\nserial:\n%s\nparallel:\n%s", outs[0], outs[1])
	}
}

// TestReportHasSeries: the HTML run report carries its charts and the
// per-interval series.
func TestReportHasSeries(t *testing.T) {
	report := filepath.Join(t.TempDir(), "report.html")
	mustRun(t, "-quick", "-report", report)
	b := readFile(t, report)
	for _, want := range []string{"<svg", "Per-interval series"} {
		if !bytes.Contains(b, []byte(want)) {
			t.Errorf("report lacks %q", want)
		}
	}
}

// TestInterruptFlushesPartialArtifact: a signal stops the sweep at the next
// cell boundary; the cells emitted so far land in the artifact and the run
// exits 130.
func TestInterruptFlushesPartialArtifact(t *testing.T) {
	art := filepath.Join(t.TempDir(), "BENCH.json")
	var stdout, stderr syncBuffer
	sig := make(chan os.Signal, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-quick", "-fig", "4", "-metrics", "-bench-out", art}, &stdout, &stderr, sig)
	}()
	// -metrics prints a digest line per emitted cell.
	for deadline := time.Now().Add(time.Minute); !strings.Contains(stdout.String(), "  .. "); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no cell emitted within a minute")
		}
	}
	sig <- os.Interrupt
	if code := <-done; code != 130 {
		t.Fatalf("exit %d, want 130\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "bench artifact (partial)") {
		t.Errorf("stderr lacks the partial-artifact line:\n%s", stderr.String())
	}
	a, err := benchfmt.ReadFile(art)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cells) == 0 || len(a.Cells) >= 78 {
		t.Fatalf("partial artifact has %d cells, want some but not the whole sweep", len(a.Cells))
	}
}
