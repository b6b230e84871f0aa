// Terminal watch mode: one line per sampling interval with the numbers an
// operator triages by (interval commits/aborts, commit rate, abort ratio,
// signature FP rate), sparkline trends of the commit rate and abort ratio
// over the trailing intervals, and pathology flags the moment the
// incremental classifier detects them — before the watchdog trips, which
// is the whole point of watching live.

package observatory

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"flextm/internal/telemetry"
)

// sparkRunes are the eight block-element levels of a sparkline cell.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders vs scaled to the series' own [min,max] range; a flat
// series renders as its lowest level.
func sparkline(vs []float64) string {
	if len(vs) == 0 {
		return ""
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range vs {
		i := 0
		if hi > lo {
			i = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[i])
	}
	return b.String()
}

// WatchTrail is how many trailing intervals the sparklines cover.
const WatchTrail = 24

// Watcher prints a refreshing digest of a frame stream. Its Observe is a
// pump reader: each line is printed inside the simulation, on the tick that
// sampled it.
type Watcher struct {
	w           io.Writer
	commitRates []float64
	abortRatios []float64
	// seen tracks pathology kinds already flagged, so the (new!) marker
	// fires only on first detection.
	seen         map[string]bool
	lastGovLevel int
	lastGovSteps int
}

// NewWatcher returns a watcher printing to w.
func NewWatcher(w io.Writer) *Watcher {
	return &Watcher{w: w, seen: map[string]bool{}}
}

// Observe prints one digest line for the frame.
func (wa *Watcher) Observe(f *Frame) {
	if f == nil {
		return
	}
	wa.commitRates = append(wa.commitRates, f.CommitRate())
	wa.abortRatios = append(wa.abortRatios, f.AbortRatio())
	if n := len(wa.commitRates) - WatchTrail; n > 0 {
		wa.commitRates = wa.commitRates[n:]
		wa.abortRatios = wa.abortRatios[n:]
	}

	tag := fmt.Sprintf("obs[%3d]", f.Index)
	if f.Final {
		tag = "obs[end]"
	}
	fmt.Fprintf(wa.w, "%s t=%-8s commits %5d (%7.1f/Mc) aborts %5d (ratio %.2f) fp %.4f  c%s a%s%s%s%s\n",
		tag, fmtCycles(uint64(f.End)),
		f.Delta.Total(telemetry.CtrTxnCommits), f.CommitRate(),
		f.Delta.Total(telemetry.CtrTxnAborts), f.AbortRatio(), f.SigFPRate(),
		sparkline(wa.commitRates), sparkline(wa.abortRatios),
		wa.govFlags(f), wa.blameFlags(f), wa.pathologyFlags(f))
}

// blameFlags renders the interval's dominant critical-path blame line from
// the windowed causal analysis ("which line is the makespan waiting on").
func (wa *Watcher) blameFlags(f *Frame) string {
	if f.Causal == nil {
		return ""
	}
	b := f.Causal.TopBlame()
	if b == nil || b.Cycles == 0 {
		return ""
	}
	s := fmt.Sprintf("  blame 0x%x %.0f%%", b.Line, b.Share*100)
	if b.FPCycles > 0 {
		s += fmt.Sprintf(" (fp %.0f%%)", float64(b.FPCycles)/float64(b.Cycles)*100)
	}
	if f.FlightGap {
		s += " gap!"
	}
	return s
}

// govFlags renders the governor annotation on governed runs: the ladder
// level in force and the interval's health state, with a step marker the
// moment a transition lands.
func (wa *Watcher) govFlags(f *Frame) string {
	g := f.Gov
	if g == nil {
		return ""
	}
	step := ""
	if g.Transitions != wa.lastGovSteps {
		dir := "raise"
		if g.Level < wa.lastGovLevel {
			dir = "lower"
		}
		step = fmt.Sprintf(" (%s!)", dir)
	}
	wa.lastGovSteps = g.Transitions
	wa.lastGovLevel = g.Level
	return fmt.Sprintf("  gov L%d/%d %s%s", g.Level, g.Rungs, g.State, step)
}

// pathologyFlags renders the frame's detected pathologies, marking kinds
// seen for the first time.
func (wa *Watcher) pathologyFlags(f *Frame) string {
	counts := f.Pathologies()
	if len(counts) == 0 {
		return ""
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var b strings.Builder
	for _, k := range kinds {
		fresh := ""
		if !wa.seen[k] {
			wa.seen[k] = true
			fresh = " (new!)"
		}
		fmt.Fprintf(&b, "  !%s x%d%s", k, counts[k], fresh)
	}
	return b.String()
}

// fmtCycles renders a cycle count compactly (1.25Mc, 310kc, 999c).
func fmtCycles(v uint64) string {
	switch {
	case v >= 10_000_000:
		return fmt.Sprintf("%.0fMc", float64(v)/1e6)
	case v >= 1_000_000:
		return fmt.Sprintf("%.2fMc", float64(v)/1e6)
	case v >= 1_000:
		return fmt.Sprintf("%.0fkc", float64(v)/1e3)
	default:
		return fmt.Sprintf("%dc", v)
	}
}
