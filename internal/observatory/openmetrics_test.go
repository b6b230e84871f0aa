package observatory

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"flextm/internal/flight"
	"flextm/internal/observatory/omtest"
	"flextm/internal/telemetry"
)

// fullFrame builds a frame with every exported family populated: counters,
// histograms, signature accounting, and a flight window for the pathology
// gauge.
func fullFrame() *Frame {
	tel := telemetry.New(2)
	fl := flight.New(2, 64)
	tel.Add(0, telemetry.CtrTxnCommits, 40)
	tel.Add(0, telemetry.CtrTxnAborts, 10)
	tel.Add(1, telemetry.CtrCycUseful, 9000)
	tel.Add(1, telemetry.CtrCycStall, 500)
	tel.Add(0, telemetry.CtrSigFalsePos, 3)
	tel.Add(0, telemetry.CtrSigTrueNeg, 97)
	tel.Add(0, telemetry.CtrSigPredFPpm, 2_000_000)
	tel.Observe(0, telemetry.HistCommitCycles, 120)
	tel.Observe(0, telemetry.HistCommitCycles, 3000)
	tel.Observe(1, telemetry.HistCMWaitCycles, 64)
	fl.Rec(0, 100, flight.TxnBegin, -1, 0, 0)
	fl.Rec(0, 200, flight.TxnCommit, -1, 0, 0)

	p := NewPump(Config{Interval: 1000})
	p.Bind(tel, fl, Meta{System: "FlexTM(Eager)", Workload: "unit", Threads: 2, Cores: 2}, nil)
	return p.Tick(1000)
}

func TestOpenMetricsExpositionValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, fullFrame()); err != nil {
		t.Fatal(err)
	}
	exp, err := omtest.ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	// The families the issue names: commits, aborts, cycle attribution,
	// signature false positives.
	for _, name := range []string{
		"flextm_txn_commits", "flextm_txn_aborts",
		"flextm_attribution_cycles",
		"flextm_sig_false_pos", "flextm_sig_fp_rate_observed",
		"flextm_run", "flextm_window_pathologies",
		"flextm_hist_commit_cycles",
	} {
		if exp.Family(name) == nil {
			t.Errorf("family %q missing from exposition", name)
		}
	}
	if fam := exp.Family("flextm_txn_commits"); fam != nil {
		if fam.Type != "counter" {
			t.Errorf("flextm_txn_commits type = %q, want counter", fam.Type)
		}
		if len(fam.Samples) != 1 || fam.Samples[0].Value != 40 {
			t.Errorf("flextm_txn_commits samples = %+v", fam.Samples)
		}
	}
	if fam := exp.Family("flextm_hist_commit_cycles"); fam != nil && fam.Type != "histogram" {
		t.Errorf("flextm_hist_commit_cycles type = %q, want histogram", fam.Type)
	}
	// Attribution is one family labeled by component.
	if fam := exp.Family("flextm_attribution_cycles"); fam != nil {
		seen := map[string]bool{}
		for _, s := range fam.Samples {
			if c, ok := s.Label("component"); ok {
				seen[c] = true
			}
		}
		for _, c := range []string{"useful", "stall", "aborted", "commit_overhead"} {
			if !seen[c] {
				t.Errorf("attribution component %q missing", c)
			}
		}
	}
}

// A governed frame exports the governor sample, through the omtest grammar
// checker.
func TestOpenMetricsExportsGovernorSample(t *testing.T) {
	f := fullFrame()
	f.Gov = &GovSample{Level: 2, Rungs: 5, State: "abort-cycling", Transitions: 3}
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, f); err != nil {
		t.Fatal(err)
	}
	exp, err := omtest.ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	for name, want := range map[string]float64{
		"flextm_governor_level":       2,
		"flextm_governor_rungs":       5,
		"flextm_governor_transitions": 3,
	} {
		fam := exp.Family(name)
		if fam == nil {
			t.Errorf("family %q missing", name)
			continue
		}
		if len(fam.Samples) != 1 || fam.Samples[0].Value != want {
			t.Errorf("%s samples = %+v, want value %g", name, fam.Samples, want)
		}
	}
	if fam := exp.Family("flextm_governor_state"); fam == nil {
		t.Error("flextm_governor_state missing")
	} else if st, _ := fam.Samples[0].Label("state"); st != "abort-cycling" {
		t.Errorf("governor state label = %q", st)
	}
	// An ungoverned frame exports no governor families.
	buf.Reset()
	if err := WriteOpenMetrics(&buf, fullFrame()); err != nil {
		t.Fatal(err)
	}
	exp, err = omtest.ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if exp.Family("flextm_governor_level") != nil {
		t.Error("ungoverned exposition leaked governor families")
	}
}

func TestOpenMetricsNilFrameIsValidAndEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "# EOF\n" {
		t.Fatalf("nil-frame exposition = %q, want bare # EOF", got)
	}
	if err := omtest.CheckExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
}

// The escaping satellite: arbitrary run metadata must round-trip through
// the writer's label escaping and the grammar checker's unescaping. The
// property is quick-checked so the adversarial cases (backslashes, quotes,
// newlines, embedded label syntax) are machine-generated, not hand-picked.
func TestOpenMetricsLabelEscapingRoundTrips(t *testing.T) {
	prop := func(system, workload string) bool {
		f := &Frame{Meta: Meta{System: system, Workload: workload, Threads: 4, Cores: 16}}
		var buf bytes.Buffer
		if err := WriteOpenMetrics(&buf, f); err != nil {
			return false
		}
		exp, err := omtest.ParseExposition(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Logf("exposition rejected for system=%q workload=%q: %v", system, workload, err)
			return false
		}
		fam := exp.Family("flextm_run")
		if fam == nil || len(fam.Samples) != 1 {
			return false
		}
		gotSys, _ := fam.Samples[0].Label("system")
		gotWl, _ := fam.Samples[0].Label("workload")
		return gotSys == system && gotWl == workload
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
	// The classic adversarial values, pinned in case quick's generator
	// misses them.
	for _, v := range []string{`a\b`, `say "hi"`, "two\nlines", `\`, `"`, `\n`, `x",evil="y`, ""} {
		if !prop(v, v) {
			t.Errorf("escaping does not round-trip %q", v)
		}
	}
}

func TestOpenMetricsHistogramBucketsAreCumulative(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteOpenMetrics(&buf, fullFrame()); err != nil {
		t.Fatal(err)
	}
	exp, err := omtest.ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fam := exp.Family("flextm_hist_commit_cycles")
	if fam == nil {
		t.Fatal("no commit-cycles histogram family")
	}
	var inf, count float64
	haveSum := false
	for _, s := range fam.Samples {
		switch s.Name {
		case "flextm_hist_commit_cycles_bucket":
			if le, _ := s.Label("le"); le == "+Inf" {
				inf = s.Value
			}
		case "flextm_hist_commit_cycles_count":
			count = s.Value
		case "flextm_hist_commit_cycles_sum":
			haveSum = true
		}
	}
	if inf != 2 || count != 2 || !haveSum {
		t.Fatalf("histogram shape wrong: +Inf=%g count=%g sum-present=%v, want 2/2/true", inf, count, haveSum)
	}
}

func TestParserRejectsMalformedExpositions(t *testing.T) {
	cases := map[string]string{
		"missing EOF":           "# TYPE x gauge\nx 1\n",
		"counter without total": "# TYPE c counter\nc 1\n# EOF\n",
		"bad label escape":      "# TYPE g gauge\ng{l=\"a\\t\"} 1\n# EOF\n",
		"undeclared family":     "nope_total 1\n# EOF\n",
		"type after samples":    "# TYPE g gauge\ng 1\n# TYPE g counter\n# EOF\n",
		"duplicate label":       "# TYPE g gauge\ng{a=\"1\",a=\"2\"} 1\n# EOF\n",
		"bad value":             "# TYPE g gauge\ng one\n# EOF\n",
		"blank line":            "# TYPE g gauge\n\ng 1\n# EOF\n",
		"content after EOF":     "# EOF\n# TYPE g gauge\n",
		"non-monotone buckets": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n" +
			"h_bucket{le=\"+Inf\"} 5\nh_count 5\nh_sum 9\n# EOF\n",
		"missing +Inf bucket": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_count 5\nh_sum 9\n# EOF\n",
		"duplicate TYPE":      "# TYPE g gauge\n# TYPE g gauge\ng 1\n# EOF\n",
		"duplicate HELP":      "# HELP g one\n# TYPE g gauge\n# HELP g two\ng 1\n# EOF\n",
	}
	for name, in := range cases {
		if err := omtest.CheckExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted:\n%s", name, in)
		}
	}
}

func TestParserAcceptsMinimalValidExposition(t *testing.T) {
	in := "# HELP g a gauge\n# TYPE g gauge\ng{l=\"v\"} 1.5\n# EOF\n"
	exp, err := omtest.ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Families) != 1 || exp.Family("g").Samples[0].Value != 1.5 {
		t.Fatalf("parse = %+v", exp.Families)
	}
}
