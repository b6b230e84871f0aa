// OpenMetrics text exposition of a frame: every telemetry counter as a
// counter family, the cycle attribution as a labeled counter, the cycle
// histograms as power-of-two-bucketed histogram families, and the derived
// per-interval rates as gauges. The output follows the OpenMetrics text
// format (bare family name in TYPE, `_total` sample suffix on counters,
// terminal `# EOF`), which Prometheus scrapes natively; the omtest package
// holds the matching grammar checker the tests run every exposition through.

package observatory

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"flextm/internal/telemetry"
)

// counterHelp is the HELP line for a telemetry counter family. Kept short:
// the authoritative descriptions live on the telemetry.Counter constants.
func counterHelp(c telemetry.Counter) string {
	return fmt.Sprintf("FlexTM telemetry counter %q summed across cores.", c.String())
}

// metricName converts a telemetry kebab-case name into a legal metric name.
func metricName(s string) string {
	return strings.ReplaceAll(s, "-", "_")
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double-quote, and newline.
func escapeLabel(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes HELP text: backslash and newline (quotes are legal).
func escapeHelp(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// WriteOpenMetrics writes the frame as an OpenMetrics exposition. A nil
// frame (no sample published yet) yields a valid, empty exposition.
func WriteOpenMetrics(w io.Writer, f *Frame) error {
	bw := bufio.NewWriter(w)
	if f != nil {
		// Run identity.
		fmt.Fprintf(bw, "# HELP flextm_run %s\n", escapeHelp("Identity of the observed run."))
		fmt.Fprintf(bw, "# TYPE flextm_run info\n")
		fmt.Fprintf(bw, "flextm_run_info{system=\"%s\",workload=\"%s\",threads=\"%d\",cores=\"%d\"} 1\n",
			escapeLabel(f.Meta.System), escapeLabel(f.Meta.Workload), f.Meta.Threads, f.Meta.Cores)

		// Observation-plane gauges.
		gauge(bw, "flextm_virtual_time_cycles", "Virtual time of the latest snapshot.", float64(f.End))
		gauge(bw, "flextm_interval_index", "Ordinal of the latest sampling interval within the run.", float64(f.Index))
		gauge(bw, "flextm_interval_cycles", "Virtual-time width of the latest sampling interval.", float64(f.IntervalCycles()))
		gauge(bw, "flextm_interval_commit_rate", "Committed transactions per million cycles over the latest interval.", f.CommitRate())
		gauge(bw, "flextm_interval_abort_ratio", "Aborted attempts over all attempts in the latest interval.", f.AbortRatio())
		gauge(bw, "flextm_interval_sig_fp_rate", "Observed signature false-positive rate over the latest interval.", f.SigFPRate())

		// Cumulative derived rates.
		obs, pred := f.Cum.SigFPRates()
		gauge(bw, "flextm_sig_fp_rate_observed", "Observed signature false-positive rate over the whole run.", obs)
		gauge(bw, "flextm_sig_fp_rate_predicted", "Mean analytic signature false-positive prediction over the whole run.", pred)

		// Every telemetry counter, machine total.
		for c := telemetry.Counter(0); c < telemetry.NumCounters; c++ {
			counter(bw, "flextm_"+metricName(c.String()), counterHelp(c), f.Cum.Total(c))
		}

		// Cycle attribution as one labeled family.
		a := f.Cum.Attribution()
		name := "flextm_attribution_cycles"
		fmt.Fprintf(bw, "# HELP %s %s\n", name, escapeHelp("Cycle attribution of transactional execution, by component."))
		fmt.Fprintf(bw, "# TYPE %s counter\n", name)
		for _, row := range []struct {
			component string
			v         uint64
		}{
			{"useful", a.Useful}, {"stall", a.Stall}, {"aborted", a.Aborted}, {"commit_overhead", a.CommitOv},
		} {
			fmt.Fprintf(bw, "%s_total{component=\"%s\"} %d\n", name, row.component, row.v)
		}

		// Cycle histograms. The hist_ prefix keeps these families disjoint
		// from the counters: telemetry names counters and histograms in
		// separate namespaces ("cm-wait-cycles" is both), OpenMetrics has
		// only one.
		for h := telemetry.HistID(0); h < telemetry.NumHists; h++ {
			histogram(bw, "flextm_hist_"+metricName(h.String()), f.Cum.Hist(h))
		}

		// Resilience-governor sample, present only on governed runs.
		if f.Gov != nil {
			gauge(bw, "flextm_governor_level", "Mitigation-ladder level in force during the latest interval.", float64(f.Gov.Level))
			gauge(bw, "flextm_governor_rungs", "Total rungs in the configured mitigation ladder.", float64(f.Gov.Rungs))
			gauge(bw, "flextm_governor_transitions", "Ladder transitions recorded so far in the run.", float64(f.Gov.Transitions))
			name := "flextm_governor_state"
			fmt.Fprintf(bw, "# HELP %s %s\n", name, escapeHelp("Latest interval health classification (1 = current state)."))
			fmt.Fprintf(bw, "# TYPE %s gauge\n", name)
			fmt.Fprintf(bw, "%s{state=\"%s\"} 1\n", name, escapeLabel(f.Gov.State))
		}

		// Windowed causal analysis: critical path and dominant blame.
		if f.Causal != nil {
			c := f.Causal
			gauge(bw, "flextm_causal_path_cycles", "Critical-path length over the sliding flight-record window.", float64(c.PathCycles))
			gauge(bw, "flextm_causal_makespan_cycles", "Makespan of the sliding flight-record window.", float64(c.Makespan))
			gauge(bw, "flextm_causal_coverage", "Critical-path cycles over window makespan (0..1).", c.Coverage)
			gauge(bw, "flextm_causal_wasted_cycles", "Cycles spent in aborted attempts within the window.", float64(c.WastedCycles))
			gauge(bw, "flextm_causal_flight_gap", "1 when ring wrap-around punched a hole in the window since the last pull.", b2f(f.FlightGap))
			if len(c.Blame) > 0 {
				name := "flextm_causal_blame_cycles"
				fmt.Fprintf(bw, "# HELP %s %s\n", name, escapeHelp("Critical-path cycles blamed on a line (fp distinguishes false-positive share)."))
				fmt.Fprintf(bw, "# TYPE %s gauge\n", name)
				for _, b := range c.Blame {
					fmt.Fprintf(bw, "%s{line=\"0x%x\",fp=\"false\"} %d\n", name, b.Line, b.Cycles-b.FPCycles)
					fmt.Fprintf(bw, "%s{line=\"0x%x\",fp=\"true\"} %d\n", name, b.Line, b.FPCycles)
				}
			}
		}

		// Windowed pathology counts from the incremental classifier.
		if f.Report != nil {
			name := "flextm_window_pathologies"
			fmt.Fprintf(bw, "# HELP %s %s\n", name, escapeHelp("Pathology instances detected in the sliding flight-record window."))
			fmt.Fprintf(bw, "# TYPE %s gauge\n", name)
			counts := f.Report.PathologyCounts()
			for _, kind := range []string{"abort-cycle", "starvation-chain", "friendly-fire"} {
				fmt.Fprintf(bw, "%s{kind=\"%s\"} %d\n", name, kind, counts[kind])
			}
		}
	}
	fmt.Fprintln(bw, "# EOF")
	return bw.Flush()
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func gauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help))
	fmt.Fprintf(w, "# TYPE %s gauge\n", name)
	fmt.Fprintf(w, "%s %g\n", name, v)
}

func counter(w io.Writer, name, help string, v uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help))
	fmt.Fprintf(w, "# TYPE %s counter\n", name)
	fmt.Fprintf(w, "%s_total %d\n", name, v)
}

// histogram writes one power-of-two-bucketed cycle histogram. Bucket i of
// telemetry.Hist holds values of bit length i, i.e. v <= 2^i - 1, which is
// exactly a cumulative `le` boundary.
func histogram(w io.Writer, name string, h telemetry.Hist) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp("Cycle histogram (power-of-two buckets)."))
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	// Find the highest non-empty bucket so the family stays compact.
	top := 0
	for i, n := range h.Buckets {
		if n > 0 {
			top = i
		}
	}
	var cum uint64
	for i := 0; i <= top; i++ {
		cum += h.Buckets[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, uint64(1)<<uint(i)-1, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
	fmt.Fprintf(w, "%s_sum %d\n", name, h.Sum)
}
