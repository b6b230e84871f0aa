// Package telemetry is the observability layer of the FlexTM stack: a
// registry of per-core counters and cycle histograms covering every
// decoupled mechanism the paper argues for separately — signatures
// (true-conflict vs Bloom false-positive hits), conflict summary tables,
// programmable data isolation (TMI/TI churn, CAS-Commit outcomes), overflow
// tables, alert-on-update, and contention-manager decisions — plus the
// per-transaction cycle attribution (useful work / stall-wait / aborted
// work / commit overhead) the paper uses to explain its eager-vs-lazy
// results.
//
// A nil *Registry is the disabled state: every method has a nil check at
// the top, so instrumentation sites call unconditionally and pay only a
// predictable branch when telemetry is off. No method allocates on the
// update path; snapshotting and printing are the only allocating
// operations.
package telemetry

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
)

// Counter identifies one per-core event counter.
type Counter int

// Per-mechanism counters. Cycle-valued counters (suffix Cycles or Ppm) are
// accumulated with Add; the rest are unit counts.
const (
	// TMESI protocol / programmable data isolation.
	CtrTMIEnter         Counter = iota // lines entering the TMI state via TStore
	CtrTIEnter                         // threatened loads filled in the TI state
	CtrProbes                          // forwarding rounds issued for this core's misses
	CtrThreatened                      // Threatened responses received
	CtrExposedRead                     // Exposed-Read responses received
	CtrStrongIsoAbort                  // transactions doomed by non-txn accesses (victim side)
	CtrSummaryTrap                     // L2 summary-signature traps taken
	CtrCommitOK                        // CAS-Commit: success
	CtrCommitAborted                   // CAS-Commit: status word already aborted
	CtrCommitCSTFail                   // CAS-Commit: refused on non-empty W-R/W-W
	CtrFlashCommitLines                // TMI lines flash-committed to M
	CtrFlashAbortLines                 // speculative lines dropped by flash abort

	// Access signatures.
	CtrSigTruePos  // membership hits confirmed by the precise shadow set
	CtrSigFalsePos // membership hits that were Bloom aliasing
	CtrSigTrueNeg  // membership misses (provably absent)
	CtrSigPredFPpm // accumulated analytic FP probability, parts-per-million

	// Conflict summary tables.
	CtrCSTSet       // conflict bits set by the protocol
	CtrCSTClear     // bits cleared by software (conflict resolution, W-R scrub)
	CtrCSTCopyClear // copy-and-clear reads in the commit routine

	// Overflow table.
	CtrOTAlloc     // first-overflow allocation traps
	CtrOTSpill     // TMI lines spilled to the OT
	CtrOTWalkHit   // OT walks that found the line
	CtrOTWalkFalse // OT walks provoked by an Osig false positive
	CtrOTExpand    // way-overflow expansion traps
	CtrOTDrainLine // lines streamed back during committed copy-back

	// Alert-on-update.
	CtrALoad // ALoad instructions issued
	CtrAlert // alerts delivered (invalidation, eviction, or synthetic)

	// Contention-manager decisions.
	CtrCMWait          // decisions: wait and re-examine
	CtrCMAbortEnemy    // decisions: abort the enemy
	CtrCMAbortSelf     // decisions: abort self
	CtrCMWaitCycles    // cycles spent in decision back-off
	CtrCMBackoffCycles // cycles spent in post-abort retry back-off

	// Per-transaction cycle attribution.
	CtrTxnCommits  // committed transactions attributed
	CtrTxnAborts   // aborted attempts attributed
	CtrCycUseful   // cycles of committed work outside stalls and commit
	CtrCycStall    // cycles waiting (CM back-off, retry back-off)
	CtrCycAborted  // cycles of work discarded by aborts
	CtrCycCommitOv // cycles inside the commit routine of committed attempts

	// Fault injection and liveness hardening.
	CtrFaultInjected   // injected hardware faults that hit this core
	CtrWatchdogTrip    // liveness watchdog trips (abort/stall budget exhausted)
	CtrEscalation      // entries into the serialized fallback mode
	CtrEscalatedCommit // commits completed inside the fallback

	// Resilience governor (internal/governor).
	CtrGovStep           // mitigation-ladder transitions (raises and lowers)
	CtrGovAdmitWaitCycles // cycles threads spent parked at the admission gate
	CtrGovSigWiden       // live signature widen/rehash operations

	NumCounters
)

var counterNames = [NumCounters]string{
	CtrTMIEnter:         "tmi-enter",
	CtrTIEnter:          "ti-enter",
	CtrProbes:           "probes",
	CtrThreatened:       "threatened",
	CtrExposedRead:      "exposed-read",
	CtrStrongIsoAbort:   "strong-iso-abort",
	CtrSummaryTrap:      "summary-trap",
	CtrCommitOK:         "cas-commit-ok",
	CtrCommitAborted:    "cas-commit-aborted",
	CtrCommitCSTFail:    "cas-commit-cst-fail",
	CtrFlashCommitLines: "flash-commit-lines",
	CtrFlashAbortLines:  "flash-abort-lines",
	CtrSigTruePos:       "sig-true-pos",
	CtrSigFalsePos:      "sig-false-pos",
	CtrSigTrueNeg:       "sig-true-neg",
	CtrSigPredFPpm:      "sig-pred-fp-ppm",
	CtrCSTSet:           "cst-set",
	CtrCSTClear:         "cst-clear",
	CtrCSTCopyClear:     "cst-copy-clear",
	CtrOTAlloc:          "ot-alloc",
	CtrOTSpill:          "ot-spill",
	CtrOTWalkHit:        "ot-walk-hit",
	CtrOTWalkFalse:      "ot-walk-false",
	CtrOTExpand:         "ot-expand",
	CtrOTDrainLine:      "ot-drain-line",
	CtrALoad:            "aou-aload",
	CtrAlert:            "aou-alert",
	CtrCMWait:           "cm-wait",
	CtrCMAbortEnemy:     "cm-abort-enemy",
	CtrCMAbortSelf:      "cm-abort-self",
	CtrCMWaitCycles:     "cm-wait-cycles",
	CtrCMBackoffCycles:  "cm-backoff-cycles",
	CtrTxnCommits:       "txn-commits",
	CtrTxnAborts:        "txn-aborts",
	CtrCycUseful:        "cyc-useful",
	CtrCycStall:         "cyc-stall",
	CtrCycAborted:       "cyc-aborted",
	CtrCycCommitOv:      "cyc-commit-overhead",
	CtrFaultInjected:    "fault-injected",
	CtrWatchdogTrip:     "watchdog-trip",
	CtrEscalation:       "escalation",
	CtrEscalatedCommit:  "escalated-commit",

	CtrGovStep:            "gov-step",
	CtrGovAdmitWaitCycles: "gov-admit-wait-cycles",
	CtrGovSigWiden:        "gov-sig-widen",
}

// String returns the counter's stable snake-case name.
func (c Counter) String() string {
	if c >= 0 && c < NumCounters {
		return counterNames[c]
	}
	return fmt.Sprintf("Counter(%d)", int(c))
}

// groups partitions the counters by mechanism for printing.
var groups = []struct {
	Name     string
	Counters []Counter
}{
	{"protocol (TMESI/PDI)", []Counter{CtrTMIEnter, CtrTIEnter, CtrProbes, CtrThreatened,
		CtrExposedRead, CtrStrongIsoAbort, CtrSummaryTrap, CtrCommitOK, CtrCommitAborted,
		CtrCommitCSTFail, CtrFlashCommitLines, CtrFlashAbortLines}},
	{"signatures", []Counter{CtrSigTruePos, CtrSigFalsePos, CtrSigTrueNeg}},
	{"conflict summary tables", []Counter{CtrCSTSet, CtrCSTClear, CtrCSTCopyClear}},
	{"overflow table", []Counter{CtrOTAlloc, CtrOTSpill, CtrOTWalkHit, CtrOTWalkFalse,
		CtrOTExpand, CtrOTDrainLine}},
	{"alert-on-update", []Counter{CtrALoad, CtrAlert}},
	{"contention manager", []Counter{CtrCMWait, CtrCMAbortEnemy, CtrCMAbortSelf,
		CtrCMWaitCycles, CtrCMBackoffCycles}},
	{"faults & liveness", []Counter{CtrFaultInjected, CtrWatchdogTrip, CtrEscalation,
		CtrEscalatedCommit}},
	{"governor", []Counter{CtrGovStep, CtrGovAdmitWaitCycles, CtrGovSigWiden}},
}

// HistID identifies one per-core cycle histogram.
type HistID int

// Histograms. Buckets are powers of two: bucket i holds values whose bit
// length is i (i.e. v in [2^(i-1), 2^i)), bucket 0 holds zero.
const (
	HistCommitCycles HistID = iota // duration of committed attempts
	HistAbortCycles                // duration of aborted attempts
	HistCMWaitCycles               // individual CM back-off waits
	NumHists
)

var histNames = [NumHists]string{
	HistCommitCycles: "commit-cycles",
	HistAbortCycles:  "abort-cycles",
	HistCMWaitCycles: "cm-wait-cycles",
}

// String returns the histogram's stable name.
func (h HistID) String() string {
	if h >= 0 && h < NumHists {
		return histNames[h]
	}
	return fmt.Sprintf("HistID(%d)", int(h))
}

// HistBuckets is the fixed bucket count (enough for 2^63-cycle values).
const HistBuckets = 64

// Hist is a power-of-two-bucketed histogram of cycle values.
type Hist struct {
	Buckets [HistBuckets]uint64
	Count   uint64
	Sum     uint64
}

func (h *Hist) observe(v uint64) {
	h.Buckets[bits.Len64(v)]++
	h.Count++
	h.Sum += v
}

// Merge adds other's observations into h.
func (h *Hist) Merge(other *Hist) {
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
	h.Count += other.Count
	h.Sum += other.Sum
}

// Mean returns the average observed value.
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound for the q-th quantile (q in [0,1]),
// resolved to the containing power-of-two bucket. q outside [0,1] clamps:
// converting a negative float to uint64 is implementation-defined, so an
// out-of-range q must never reach the index computation.
func (h *Hist) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 || q != q { // NaN compares false against everything
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.Count))
	if target >= h.Count {
		target = h.Count - 1
	}
	var cum uint64
	for i, n := range h.Buckets {
		cum += n
		if cum > target {
			if i == 0 {
				return 0
			}
			return 1<<uint(i) - 1
		}
	}
	return 1<<63 - 1
}

// coreSlot holds one core's counters and histograms.
type coreSlot struct {
	ctr  [NumCounters]uint64
	hist [NumHists]Hist
}

// Registry is the telemetry store for one simulated machine. A nil
// *Registry is valid and means "disabled": all update methods return
// immediately.
type Registry struct {
	cores []coreSlot
}

// New returns an enabled registry sized for the given core count.
func New(cores int) *Registry {
	return &Registry{cores: make([]coreSlot, cores)}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// Inc adds 1 to counter c on core.
func (r *Registry) Inc(core int, c Counter) {
	if r == nil {
		return
	}
	r.cores[core].ctr[c]++
}

// Add adds n to counter c on core.
func (r *Registry) Add(core int, c Counter, n uint64) {
	if r == nil {
		return
	}
	r.cores[core].ctr[c] += n
}

// Observe records v in histogram h on core.
func (r *Registry) Observe(core int, h HistID, v uint64) {
	if r == nil {
		return
	}
	r.cores[core].hist[h].observe(v)
}

// Reset zeroes all counters and histograms.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	for i := range r.cores {
		r.cores[i] = coreSlot{}
	}
}

// CoreSnapshot is one core's frozen telemetry state.
type CoreSnapshot struct {
	Counters [NumCounters]uint64
	Hists    [NumHists]Hist
}

// Snapshot is a frozen copy of a registry's state. Snapshots from the same
// machine are diff-able, which is how callers meter individual phases of a
// longer run.
type Snapshot struct {
	Cores []CoreSnapshot
}

// Snapshot returns a deep copy of the registry's current state (empty for a
// nil registry).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{Cores: make([]CoreSnapshot, len(r.cores))}
	for i := range r.cores {
		s.Cores[i].Counters = r.cores[i].ctr
		s.Cores[i].Hists = r.cores[i].hist
	}
	return s
}

// Diff returns s - prev, element-wise. prev must be from the same machine
// (same core count) or empty; counts are assumed monotone, and any
// underflow clamps to zero so a mismatched pair cannot produce garbage
// deltas.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	out := Snapshot{Cores: make([]CoreSnapshot, len(s.Cores))}
	for i := range s.Cores {
		out.Cores[i] = s.Cores[i]
		if i >= len(prev.Cores) {
			continue
		}
		p := &prev.Cores[i]
		for c := range out.Cores[i].Counters {
			out.Cores[i].Counters[c] = sub(s.Cores[i].Counters[c], p.Counters[c])
		}
		for h := range out.Cores[i].Hists {
			d := &out.Cores[i].Hists[h]
			for b := range d.Buckets {
				d.Buckets[b] = sub(d.Buckets[b], p.Hists[h].Buckets[b])
			}
			d.Count = sub(d.Count, p.Hists[h].Count)
			d.Sum = sub(d.Sum, p.Hists[h].Sum)
		}
	}
	return out
}

func sub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// Empty reports whether the snapshot holds no observations.
func (s Snapshot) Empty() bool {
	for i := range s.Cores {
		for _, v := range s.Cores[i].Counters {
			if v != 0 {
				return false
			}
		}
		for h := range s.Cores[i].Hists {
			if s.Cores[i].Hists[h].Count != 0 {
				return false
			}
		}
	}
	return true
}

// Total sums counter c across cores.
func (s Snapshot) Total(c Counter) uint64 {
	var t uint64
	for i := range s.Cores {
		t += s.Cores[i].Counters[c]
	}
	return t
}

// PerCore returns counter c's per-core values.
func (s Snapshot) PerCore(c Counter) []uint64 {
	out := make([]uint64, len(s.Cores))
	for i := range s.Cores {
		out[i] = s.Cores[i].Counters[c]
	}
	return out
}

// Hist returns histogram h merged across cores.
func (s Snapshot) Hist(h HistID) Hist {
	var out Hist
	for i := range s.Cores {
		out.Merge(&s.Cores[i].Hists[h])
	}
	return out
}

// Totals returns every non-zero counter total keyed by its stable name
// (the machine-readable form used by paperbench -json).
func (s Snapshot) Totals() map[string]uint64 {
	out := map[string]uint64{}
	for c := Counter(0); c < NumCounters; c++ {
		if t := s.Total(c); t != 0 {
			out[c.String()] = t
		}
	}
	return out
}

// SigFPRates returns the empirically observed signature false-positive rate
// (false hits over ground-truth-negative membership tests) and the mean
// analytic prediction accumulated at the same tests, for comparison against
// signature.FalsePositiveRate.
func (s Snapshot) SigFPRates() (observed, predicted float64) {
	fp := s.Total(CtrSigFalsePos)
	tn := s.Total(CtrSigTrueNeg)
	neg := fp + tn
	if neg == 0 {
		return 0, 0
	}
	observed = float64(fp) / float64(neg)
	predicted = float64(s.Total(CtrSigPredFPpm)) / 1e6 / float64(neg)
	return observed, predicted
}

// Attribution is the cycle breakdown of transactional execution (the
// decomposition the paper uses to explain Figure 5): where each core's
// cycles went, summed over the attributed transactions.
type Attribution struct {
	Commits  uint64
	Aborts   uint64
	Useful   uint64 // committed work outside stalls and the commit routine
	Stall    uint64 // CM waits and retry back-off
	Aborted  uint64 // work discarded by aborts
	CommitOv uint64 // commit-routine cycles of committed attempts
}

// Total returns all attributed cycles.
func (a Attribution) Total() uint64 { return a.Useful + a.Stall + a.Aborted + a.CommitOv }

// attributionOf extracts the attribution counters from one counter array.
func attributionOf(ctr *[NumCounters]uint64) Attribution {
	return Attribution{
		Commits:  ctr[CtrTxnCommits],
		Aborts:   ctr[CtrTxnAborts],
		Useful:   ctr[CtrCycUseful],
		Stall:    ctr[CtrCycStall],
		Aborted:  ctr[CtrCycAborted],
		CommitOv: ctr[CtrCycCommitOv],
	}
}

// Attribution returns the machine-wide cycle attribution.
func (s Snapshot) Attribution() Attribution {
	var a Attribution
	for i := range s.Cores {
		ca := attributionOf(&s.Cores[i].Counters)
		a.Commits += ca.Commits
		a.Aborts += ca.Aborts
		a.Useful += ca.Useful
		a.Stall += ca.Stall
		a.Aborted += ca.Aborted
		a.CommitOv += ca.CommitOv
	}
	return a
}

// AttributionPerCore returns each core's cycle attribution.
func (s Snapshot) AttributionPerCore() []Attribution {
	out := make([]Attribution, len(s.Cores))
	for i := range s.Cores {
		out[i] = attributionOf(&s.Cores[i].Counters)
	}
	return out
}

// Print writes the per-mechanism counter totals, one section per
// mechanism, skipping all-zero groups.
func (s Snapshot) Print(w io.Writer) {
	for _, g := range groups {
		any := false
		for _, c := range g.Counters {
			if s.Total(c) != 0 {
				any = true
				break
			}
		}
		if !any {
			continue
		}
		fmt.Fprintf(w, "[%s]\n", g.Name)
		for _, c := range g.Counters {
			fmt.Fprintf(w, "  %-22s %12d\n", c, s.Total(c))
		}
		if g.Name == "signatures" {
			if obs, pred := s.SigFPRates(); obs > 0 || pred > 0 {
				fmt.Fprintf(w, "  %-22s %12.5f (analytic %.5f)\n", "false-positive rate", obs, pred)
			}
		}
	}
	for h := HistID(0); h < NumHists; h++ {
		m := s.Hist(h)
		if m.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "[hist %s] n=%d mean=%.0f p50<=%d p90<=%d p99<=%d\n",
			h, m.Count, m.Mean(), m.Quantile(0.50), m.Quantile(0.90), m.Quantile(0.99))
	}
}

// PrintAttribution writes the cycle-attribution table: the machine-wide
// split plus a per-core breakdown for cores that committed work.
func (s Snapshot) PrintAttribution(w io.Writer) {
	a := s.Attribution()
	total := a.Total()
	if total == 0 {
		fmt.Fprintln(w, "cycle attribution: no attributed transactions")
		return
	}
	pct := func(v uint64) float64 { return 100 * float64(v) / float64(total) }
	fmt.Fprintf(w, "cycle attribution over %d commits, %d aborted attempts:\n", a.Commits, a.Aborts)
	fmt.Fprintf(w, "  %-16s %14s %7s %16s\n", "component", "cycles", "share", "cycles/commit")
	perCommit := func(v uint64) float64 {
		if a.Commits == 0 {
			return 0
		}
		return float64(v) / float64(a.Commits)
	}
	rows := []struct {
		name string
		v    uint64
	}{
		{"useful work", a.Useful},
		{"stall-wait", a.Stall},
		{"aborted work", a.Aborted},
		{"commit overhead", a.CommitOv},
	}
	for _, row := range rows {
		fmt.Fprintf(w, "  %-16s %14d %6.1f%% %16.1f\n", row.name, row.v, pct(row.v), perCommit(row.v))
	}
	fmt.Fprintf(w, "  per-core: core commits useful%% stall%% aborted%% commit%%\n")
	for i, ca := range s.AttributionPerCore() {
		ct := ca.Total()
		if ct == 0 {
			continue
		}
		p := func(v uint64) float64 { return 100 * float64(v) / float64(ct) }
		fmt.Fprintf(w, "    %4d %8d %7.1f %6.1f %8.1f %7.1f\n",
			i, ca.Commits, p(ca.Useful), p(ca.Stall), p(ca.Aborted), p(ca.CommitOv))
	}
}

// Compact returns a one-line digest of the snapshot, used by sweep modes
// that print one data point per line.
func Compact(s Snapshot) string {
	obs, pred := s.SigFPRates()
	a := s.Attribution()
	total := a.Total()
	pct := func(v uint64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(v) / float64(total)
	}
	return fmt.Sprintf(
		"sig tp/fp=%d/%d (fpr %.4f~%.4f) cst s/c=%d/%d ot spill/walk=%d/%d alerts=%d cm w/e/s=%d/%d/%d cyc u/s/a/c=%.0f/%.0f/%.0f/%.0f%%",
		s.Total(CtrSigTruePos), s.Total(CtrSigFalsePos), obs, pred,
		s.Total(CtrCSTSet), s.Total(CtrCSTClear),
		s.Total(CtrOTSpill), s.Total(CtrOTWalkHit)+s.Total(CtrOTWalkFalse),
		s.Total(CtrAlert),
		s.Total(CtrCMWait), s.Total(CtrCMAbortEnemy), s.Total(CtrCMAbortSelf),
		pct(a.Useful), pct(a.Stall), pct(a.Aborted), pct(a.CommitOv))
}

// SortedCounterNames returns every counter name in display order (stable
// across runs; useful for machine consumers discovering the schema).
func SortedCounterNames() []string {
	out := make([]string, 0, NumCounters)
	for c := Counter(0); c < NumCounters; c++ {
		out = append(out, c.String())
	}
	sort.Strings(out)
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
