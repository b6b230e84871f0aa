package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"flextm/internal/observatory/omtest"
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

// flextmRun runs the command in-process with no signals and returns its
// exit status and output streams.
func flextmRun(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb, nil)
	return code, out.String(), errb.String()
}

// mustRun runs the command and fails the test unless it exits 0.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, stdout, stderr := flextmRun(args...)
	if code != 0 {
		t.Fatalf("flextm %q exited %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout, stderr)
	}
	return stdout
}

// eventually retries check until it passes, failing the test after a minute.
func eventually(t *testing.T, what string, check func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); !check(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// httpGet fetches url and returns the body of a 200 response.
func httpGet(url string) (string, bool) {
	resp, err := http.Get(url)
	if err != nil {
		return "", false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err == nil && resp.StatusCode == http.StatusOK
}

// TestExitStatus pins the exit status of each kind of outcome: a verdict
// that fails, a bad flag value, and a run the harness rejects.
func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		errs string
	}{
		{[]string{"-list"}, 0, ""},
		{[]string{"-h"}, 0, "Usage of flextm:"},
		{[]string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
		{[]string{"-workload", "Nope"}, 2, `flextm: unknown workload "Nope" (try -list)`},
		{[]string{"-query-out", "q.json"}, 2, "flextm: -query-out needs at least one -query"},
		// A scale that is not a power of two once panicked inside the
		// simulation, widening to a geometry no signature can have.
		{[]string{"-livelock", "-govern", "-govern-ladder", "sig:3"}, 2, `flextm: governor: bad signature scale "3"`},
		{[]string{"-schedule", "s5,t2,r3,o1,a2,lazy,broken"}, 1, ""},
		{[]string{"-threads", "99"}, 1, "flextm: harness: 99 threads on 16 cores"},
		// A negative op count once ran no ops and printed a negative
		// throughput.
		{[]string{"-ops", "-3", "-threads", "2"}, 1, "flextm: harness: negative op count"},
	} {
		code, stdout, stderr := flextmRun(tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.errs) {
			t.Errorf("flextm %q: exit %d, want %d with stderr containing %q\nstdout:\n%s\nstderr:\n%s",
				tc.args, code, tc.code, tc.errs, stdout, stderr)
		}
	}
}

// TestTracedExampleHoldsWholeRun runs the README's traced example: the
// flight rings must hold the whole run (no WARNING), and the timeline must
// carry attempt spans and the critical-path track.
func TestTracedExampleHoldsWholeRun(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	code, stdout, stderr := flextmRun("-workload", "RandomGraph", "-system", "FlexTM(Lazy)",
		"-threads", "16", "-metrics", "-tracestats", "-trace-out", trace)
	if code != 0 || strings.Contains(stdout+stderr, "WARNING") {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	b, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"ph":"X"`, `"name":"critical path"`} {
		if !bytes.Contains(b, []byte(want)) {
			t.Errorf("trace lacks %s", want)
		}
	}
}

// TestGovernedLivelockProbe: flextm fails the governed probe if the
// watchdog trips or a rung is still applied at the end, and writes the
// transition log.
func TestGovernedLivelockProbe(t *testing.T) {
	log := filepath.Join(t.TempDir(), "govern.log")
	mustRun(t, "-livelock", "-govern", "-govern-log", log)
	if b, err := os.ReadFile(log); err != nil || len(b) == 0 {
		t.Fatalf("transition log: %d bytes, %v", len(b), err)
	}
}

// TestCausalReportIsByteStable: the governed probe's critical path is
// non-empty, explains most of the makespan, and renders to the same bytes on
// every same-seed run (the simulator is deterministic and the renderer
// canonical, so a diff is a nondeterminism bug).
func TestCausalReportIsByteStable(t *testing.T) {
	dir := t.TempDir()
	j1, j2, dot := filepath.Join(dir, "c1.json"), filepath.Join(dir, "c2.json"), filepath.Join(dir, "c.dot")
	mustRun(t, "-livelock", "-govern", "-causal-json", j1, "-causal-dot", dot)
	mustRun(t, "-livelock", "-govern", "-causal-json", j2)
	b1, err1 := os.ReadFile(j1)
	b2, err2 := os.ReadFile(j2)
	d, err3 := os.ReadFile(dot)
	if err1 != nil || err2 != nil || err3 != nil {
		t.Fatal(err1, err2, err3)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("two same-seed causal reports differ")
	}
	if !bytes.Contains(d, []byte("critical path")) {
		t.Error("DOT lacks the critical path")
	}
	var r struct {
		Path       []json.RawMessage `json:"path"`
		PathCycles uint64            `json:"pathCycles"`
		Coverage   float64           `json:"coverage"`
		Blame      []json.RawMessage `json:"blame"`
	}
	if err := json.Unmarshal(b1, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Path) == 0 || r.PathCycles == 0 || len(r.Blame) == 0 || r.Coverage < 0.6 {
		t.Fatalf("path %d steps, %d cycles, %d blame entries, coverage %.2f",
			len(r.Path), r.PathCycles, len(r.Blame), r.Coverage)
	}
}

// TestFlightQLGoldenOverLivelockProbe pins `flextm -livelock -query-out`:
// the seed-1 probe's records, run through the golden query set and rendered
// canonically, must match the checked-in document byte for byte. After a
// deliberate protocol or query-engine change, regenerate the golden with
// this command and commit it alongside the change.
func TestFlightQLGoldenOverLivelockProbe(t *testing.T) {
	out := filepath.Join(t.TempDir(), "q.json")
	mustRun(t, "-livelock",
		"-query", "group by kind",
		"-query", "filter kind == abort-enemy | group by core, peer agg count",
		"-query", "filter kind == cm-stall | group by line agg count, sum(dur), max(dur) | top 3 by sum(dur)",
		"-query", "at cycle 30000 show cores",
		"-query", "at cycle 30000 show lines where writers > 1",
		"-query", "filter kind == watchdog-trip | expect count >= 1",
		"-query-out", out)
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/flightql_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("FlightQL results over the livelock probe differ from testdata/flightql_golden.json (%d bytes, want %d)",
			len(got), len(want))
	}
}

// TestWatchGoldens pins the whole stdout of the seed-1 livelock probe under
// -watch, ungoverned and governed, and the governed run's transition log.
// The watcher prints inside the simulation, so every watch line precedes
// the run summary and the output is the same on every run and host.
func TestWatchGoldens(t *testing.T) {
	log := filepath.Join(t.TempDir(), "govern.log")
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"livelock_watch.golden", []string{"-livelock", "-watch"}},
		{"livelock_govern_watch.golden", []string{"-livelock", "-govern", "-watch", "-govern-log", log}},
	} {
		golden(t, tc.golden, mustRun(t, tc.args...))
	}
	b, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "livelock_govern_log.golden", string(b))
}

// golden fails the test unless got is byte-equal to testdata/name.
func golden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from testdata/%s:\ngot:\n%s", name, got)
	}
}

// TestLiveObservatory scrapes every observatory endpoint of one live run,
// then interrupts its -linger scrape window.
func TestLiveObservatory(t *testing.T) {
	var stdout, stderr syncBuffer
	sig := make(chan os.Signal, 1)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"-workload", "RBTree", "-system", "FlexTM(Lazy)", "-threads", "8",
			"-query", "group by kind", "-http", "127.0.0.1:0", "-linger", "120s"}, &stdout, &stderr, sig)
	}()
	stopped := false
	defer func() {
		if !stopped {
			sig <- os.Interrupt
			<-done
		}
	}()

	addrLine := regexp.MustCompile(`observatory http://(\S+) `)
	var base string
	eventually(t, "the observatory address", func() bool {
		m := addrLine.FindStringSubmatch(stderr.String())
		if m != nil {
			base = "http://" + m[1]
		}
		return m != nil
	})
	// A scrape before the first published frame is valid but empty.
	var scrape string
	families := regexp.MustCompile(`(?m)^flextm_(txn_commits_total|causal_path_cycles|causal_coverage)\b`)
	eventually(t, "a scrape with commits and causal gauges", func() bool {
		scrape, _ = httpGet(base + "/metrics")
		seen := map[string]bool{}
		for _, m := range families.FindAllStringSubmatch(scrape, -1) {
			seen[m[1]] = true
		}
		return len(seen) == 3
	})
	if err := omtest.CheckExposition(strings.NewReader(scrape)); err != nil {
		t.Errorf("/metrics is not a valid OpenMetrics exposition: %v", err)
	}
	for _, path := range []string{"/snapshot.json", "/flight"} {
		if body, ok := httpGet(base + path); !ok || !json.Valid([]byte(body)) {
			t.Errorf("%s: not a JSON document", path)
		}
	}
	if body, _ := httpGet(base + "/conflictgraph.dot"); !strings.Contains(body, "digraph") {
		t.Error("/conflictgraph.dot: no digraph")
	}
	var count struct {
		Kind  string `json:"kind"`
		Count uint64 `json:"count"`
	}
	eventually(t, "a commit count from /query", func() bool {
		body, ok := httpGet(base + "/query?q=" + url.QueryEscape("filter kind == commit | count"))
		return ok && json.Unmarshal([]byte(body), &count) == nil && count.Kind == "count"
	})
	if count.Count == 0 {
		t.Error("/query counted no commits")
	}
	if body, _ := httpGet(base + "/query?format=table&q=" + url.QueryEscape("group by kind")); !strings.Contains(body, "commit") {
		t.Errorf("/query table lacks commit:\n%s", body)
	}

	// A signal in the scrape window ends it with 130.
	eventually(t, "the scrape window", func() bool { return strings.Contains(stderr.String(), "observatory lingering") })
	stopped = true
	sig <- os.Interrupt
	if code := <-done; code != 130 {
		t.Fatalf("interrupted run exited %d, want 130\nstderr:\n%s", code, stderr.String())
	}
}

// TestInterruptMidRunFlushesPartialArtifacts: a signal that arrives while
// the simulation runs makes the next pump tick print the partial telemetry
// and end the run with status 130.
func TestInterruptMidRunFlushesPartialArtifacts(t *testing.T) {
	var stdout, stderr bytes.Buffer
	sig := make(chan os.Signal, 1)
	sig <- os.Interrupt
	code := run([]string{"-workload", "RBTree", "-threads", "8", "-ops", "20000", "-metrics"}, &stdout, &stderr, sig)
	if code != 130 || !strings.Contains(stderr.String(), "-- telemetry at interrupt --") {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("an interrupted run printed its final report:\n%s", stdout.String())
	}
}
