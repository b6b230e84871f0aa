package observatory

import (
	"strings"
	"testing"

	"flextm/internal/conflictgraph"
)

func TestSparkline(t *testing.T) {
	if got := sparkline(nil); got != "" {
		t.Fatalf("empty series = %q", got)
	}
	if got := sparkline([]float64{5, 5, 5}); got != "▁▁▁" {
		t.Fatalf("flat series = %q, want lowest level", got)
	}
	got := sparkline([]float64{0, 50, 100})
	if []rune(got)[0] != '▁' || []rune(got)[2] != '█' {
		t.Fatalf("ramp = %q, want min..max levels", got)
	}
}

func TestWatcherDigestLine(t *testing.T) {
	var buf strings.Builder
	wa := NewWatcher(&buf)
	wa.Observe(fullFrame())
	line := buf.String()
	for _, want := range []string{"obs[  0]", "commits", "aborts", "fp"} {
		if !strings.Contains(line, want) {
			t.Errorf("digest %q missing %q", line, want)
		}
	}
}

func TestWatcherFlagsNewPathologiesOnce(t *testing.T) {
	// A frame whose windowed report carries a pathology (the end-to-end
	// livelock path is covered in internal/harness; here the report is
	// synthesized to pin the flag format and the one-shot (new!) marker).
	sick := &Frame{Report: &conflictgraph.Report{Pathologies: []conflictgraph.Pathology{
		{Kind: conflictgraph.AbortCycle, Cores: []int{0, 1}, Count: 3},
	}}}
	var buf strings.Builder
	wa := NewWatcher(&buf)
	if got := wa.pathologyFlags(&Frame{}); got != "" {
		t.Fatalf("no-report frame flags = %q", got)
	}
	first := wa.pathologyFlags(sick)
	if !strings.Contains(first, "!abort-cycle x3") || !strings.Contains(first, "(new!)") {
		t.Fatalf("first detection = %q", first)
	}
	again := wa.pathologyFlags(sick)
	if !strings.Contains(again, "!abort-cycle x3") || strings.Contains(again, "(new!)") {
		t.Fatalf("repeat detection = %q, want flag without (new!)", again)
	}
}

func TestWatcherAnnotatesGovernor(t *testing.T) {
	var buf strings.Builder
	wa := NewWatcher(&buf)

	wa.Observe(&Frame{Index: 0, Gov: &GovSample{Level: 0, Rungs: 5, State: "healthy"}})
	if line := buf.String(); !strings.Contains(line, "gov L0/5 healthy") || strings.Contains(line, "raise!") {
		t.Fatalf("quiet governed line = %q", line)
	}

	buf.Reset()
	wa.Observe(&Frame{Index: 1, Gov: &GovSample{Level: 1, Rungs: 5, State: "contended", Transitions: 1}})
	if line := buf.String(); !strings.Contains(line, "gov L1/5 contended (raise!)") {
		t.Fatalf("raise line = %q", line)
	}

	buf.Reset()
	wa.Observe(&Frame{Index: 2, Gov: &GovSample{Level: 0, Rungs: 5, State: "healthy", Transitions: 2}})
	if line := buf.String(); !strings.Contains(line, "(lower!)") {
		t.Fatalf("lower line = %q", line)
	}
	// Ungoverned frames stay unannotated.
	buf.Reset()
	wa.Observe(&Frame{Index: 3})
	if line := buf.String(); strings.Contains(line, "gov ") {
		t.Fatalf("ungoverned quiet line = %q", line)
	}
}

func TestFmtCycles(t *testing.T) {
	cases := map[uint64]string{
		0: "0c", 999: "999c", 1000: "1kc", 310_000: "310kc",
		1_250_000: "1.25Mc", 42_000_000: "42Mc",
	}
	for v, want := range cases {
		if got := fmtCycles(v); got != want {
			t.Errorf("fmtCycles(%d) = %q, want %q", v, got, want)
		}
	}
}
