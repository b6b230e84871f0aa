// Package causal reconstructs a per-transaction-attempt DAG from flight
// records and answers the question the aggregate counters cannot: *why did
// this run take exactly as long as it did?*
//
// Nodes are transaction attempts (begin → commit/abort, with stall, backoff
// and serialized sub-phases). Edges are:
//
//   - kill:  killer attempt → victim attempt, labeled with the conflicting
//     line and whether the conflict was a signature false positive,
//   - retry: an aborted attempt → the next attempt of the same logical
//     transaction on the same core (the gap between them is back-off),
//   - seq:   a committed attempt → its core's next attempt (program order).
//
// On the DAG the analyzer computes the makespan critical path — the
// contiguous cost-weighted chain of spans and waits that ends at the last
// commit — plus per-line blame totals ("line 0x40 cost 31% of the critical
// path, 60% of that from false positives"), per killer→victim pair totals,
// and a wasted-work ledger charging every aborted attempt's cycles to its
// killer.
//
// The package is the simulator's one attempt fold: Report.Summary derives
// the lifecycle summary (commit/abort counts, attempt-cycle percentiles,
// retries per commit, contention-manager outcomes) from the same DAG, and
// the renderers emit Graphviz, JSON and the Chrome trace_event format.
//
// The tracer is purely offline: it consumes the flight recorder's passive
// records, so traced and untraced runs are bit-identical by construction,
// and a nil recorder costs zero allocations per event (the flight
// package's discipline). Analysis itself is deterministic: same records in,
// byte-identical report out.
package causal

import (
	"fmt"
	"io"
	"sort"

	"flextm/internal/flight"
	"flextm/internal/sim"
)

// Options parameterizes Analyze.
type Options struct {
	// Cores sizes the per-core attempt tables (0 derives it from the
	// records).
	Cores int
	// TopBlame caps the blame table (<=0 selects 10).
	TopBlame int
}

// Outcome classifies how an attempt ended.
type Outcome uint8

const (
	// Open: the window ended before the attempt did.
	Open Outcome = iota
	// Committed: the attempt CAS-committed.
	Committed
	// Aborted: the attempt died (remote kill, self-abort, or alert).
	Aborted
)

func (o Outcome) String() string {
	switch o {
	case Committed:
		return "commit"
	case Aborted:
		return "abort"
	}
	return "open"
}

// stall is one contention-manager wait inside an attempt.
type stall struct {
	At   sim.Time
	Dur  sim.Time
	Line uint64
	FP   bool
}

// Attempt is one node of the DAG: a single transaction attempt on a core.
type Attempt struct {
	Core    int      `json:"core"`
	Index   int      `json:"index"` // per-core ordinal within the window
	Start   sim.Time `json:"start"`
	End     sim.Time `json:"end"`
	Outcome Outcome  `json:"-"`

	Serialized bool     `json:"serialized,omitempty"` // committed inside the fallback
	Stall      sim.Time `json:"stall,omitempty"`      // CM wait cycles inside the span
	Backoff    sim.Time `json:"backoff,omitempty"`    // retry back-off after an abort

	// Abort lineage, meaningful when Outcome == Aborted.
	KillerCore  int      `json:"killerCore"`         // -1 when unattributed
	KillerIndex int      `json:"killerIndex"`        // killer's attempt ordinal
	KillAt      sim.Time `json:"killAt,omitempty"`   // when the killer CASed us
	KillLine    uint64   `json:"killLine,omitempty"` // the conflicting line
	KillFP      bool     `json:"killFP,omitempty"`   // conflict was a signature false positive
	SelfKill    bool     `json:"selfKill,omitempty"` // CM abort-self verdict (yielded to KillerCore)
	Synthesized bool     `json:"-"`                  // begin lost to ring wrap-around; node invented from a later record

	stalls []stall
}

// PathSeg is one chronological segment of the critical path. Segments are
// contiguous in time: each starts where the previous one ends. Edge names
// the dependency linking this segment to the previous (earlier) one.
type PathSeg struct {
	Core    int      `json:"core"`
	Attempt int      `json:"attempt"`
	Start   sim.Time `json:"start"`
	End     sim.Time `json:"end"`
	// Kind: "span" (committed work), "serialized" (committed in the
	// fallback), "aborted" (work thrown away), "backoff" (post-abort
	// retry wait), "idle" (between a commit and the next begin), "open"
	// (attempt truncated by the window).
	Kind string `json:"kind"`
	// Edge into this segment from the previous one: "kill", "retry",
	// "seq", or "" for the chain's first segment.
	Edge string `json:"edge,omitempty"`
	Line uint64 `json:"line,omitempty"` // blamed line (aborted/backoff segments)
	FP   bool   `json:"fp,omitempty"`   // that conflict was a false positive
}

// Dur returns the segment's width in cycles.
func (s PathSeg) Dur() uint64 { return uint64(s.End - s.Start) }

// Blame is one line's share of the critical path.
type Blame struct {
	Line     uint64  `json:"line"`
	Cycles   uint64  `json:"cycles"`
	FPCycles uint64  `json:"fpCycles"`
	Share    float64 `json:"share"` // Cycles / PathCycles
}

// PairBlame aggregates kill damage per killer→victim core pair (the
// workload-site proxy: which duel costs the most).
type PairBlame struct {
	Killer int    `json:"killer"`
	Victim int    `json:"victim"`
	Kills  uint64 `json:"kills"`
	Cycles uint64 `json:"cycles"` // wasted cycles in the victims' dead attempts
}

// Waste is one killer's row of the wasted-work ledger.
type Waste struct {
	Killer int    `json:"killer"` // -1 collects unattributed aborts
	Kills  uint64 `json:"kills"`
	Cycles uint64 `json:"cycles"`
}

// Report is the full causal analysis of one record window.
type Report struct {
	Cores    int      `json:"cores"`
	WinStart sim.Time `json:"winStart"`
	WinEnd   sim.Time `json:"winEnd"`
	Makespan uint64   `json:"makespan"`

	Attempts int `json:"attempts"`
	Commits  int `json:"commits"`
	Aborts   int `json:"aborts"`

	// The critical path: contiguous segments ending at the last commit.
	LastCommitAt sim.Time  `json:"lastCommitAt"`
	PathStart    sim.Time  `json:"pathStart"`
	PathCycles   uint64    `json:"pathCycles"`
	Coverage     float64   `json:"coverage"` // PathCycles / Makespan
	Path         []PathSeg `json:"path"`

	Blame  []Blame     `json:"blame,omitempty"`
	Pairs  []PairBlame `json:"pairs,omitempty"`
	Wasted []Waste     `json:"wasted,omitempty"`
	// WastedCycles totals every aborted attempt's span in the window.
	WastedCycles uint64 `json:"wastedCycles"`

	// PerCore holds the reconstructed attempt DAG nodes, for renderers.
	PerCore [][]Attempt `json:"-"`
}

// Analyze reconstructs the attempt DAG from one window of flight records
// and computes its critical path and blame tables. Returns nil when the
// window is empty. Deterministic: the same records produce a byte-identical
// report.
func Analyze(recs []flight.Rec, opts Options) *Report {
	if len(recs) == 0 {
		return nil
	}
	n := opts.Cores
	for _, r := range recs {
		if int(r.Core) >= n {
			n = int(r.Core) + 1
		}
		if int(r.Peer) >= n {
			n = int(r.Peer) + 1
		}
	}

	winStart, winEnd := recs[0].At, recs[0].At
	for _, r := range recs {
		if r.At < winStart {
			winStart = r.At
		}
		if r.At > winEnd {
			winEnd = r.At
		}
	}

	rep := &Report{Cores: n, WinStart: winStart, WinEnd: winEnd}

	// ---- Pass 1: reconstruct attempts. ----
	attempts := make([][]Attempt, n)
	open := make([]int, n) // index+1 of the open attempt, 0 = none
	synth := func(c int, at sim.Time) *Attempt {
		attempts[c] = append(attempts[c], Attempt{
			Core: c, Index: len(attempts[c]), Start: at, KillerCore: -1,
			Synthesized: true,
		})
		open[c] = len(attempts[c])
		return &attempts[c][open[c]-1]
	}
	ensureOpen := func(c int, at sim.Time) *Attempt {
		if open[c] != 0 {
			return &attempts[c][open[c]-1]
		}
		// Window truncation: an event for an attempt whose begin was
		// overwritten. Synthesize the node so lineage still resolves.
		return synth(c, at)
	}
	// openOnly returns the core's open attempt; when there is none it
	// synthesizes one only for a truncated stream head (no history for the
	// core yet). A kill or stall aimed at a core with a *closed* history is
	// a failed CAS on an already-dead attempt and must not invent nodes.
	openOnly := func(c int, at sim.Time) *Attempt {
		if open[c] != 0 {
			return &attempts[c][open[c]-1]
		}
		if len(attempts[c]) == 0 {
			return synth(c, at)
		}
		return nil
	}
	// Latest conflicting line per core pair, for attributing lazy
	// commit-loop kills whose AbortEnemy record carries no line.
	type lineFP struct {
		line uint64
		fp   bool
	}
	lastConflict := map[[2]int]lineFP{}
	pairKey := func(a, b int) [2]int {
		if a > b {
			a, b = b, a
		}
		return [2]int{a, b}
	}

	for _, r := range recs {
		c := int(r.Core)
		if c < 0 || c >= n {
			continue
		}
		switch r.Kind {
		case flight.TxnBegin:
			if open[c] != 0 {
				// Missing terminator (overwritten record): close as open.
				a := &attempts[c][open[c]-1]
				a.End = r.At
			}
			attempts[c] = append(attempts[c], Attempt{
				Core: c, Index: len(attempts[c]), Start: r.At, KillerCore: -1,
			})
			open[c] = len(attempts[c])
		case flight.TxnCommit:
			a := ensureOpen(c, r.At)
			a.End = r.At
			a.Outcome = Committed
			a.Serialized = r.Aux&flight.AuxMask != 0
			open[c] = 0
		case flight.TxnAbort:
			a := ensureOpen(c, r.At)
			a.End = r.At
			a.Outcome = Aborted
			open[c] = 0
		case flight.AbortEnemy:
			v := int(r.Peer)
			if v < 0 || v >= n {
				continue
			}
			a := openOnly(v, r.At)
			if a == nil || a.KillAt != 0 || a.SelfKill {
				continue // only the first CAS on an attempt lands
			}
			a.KillerCore = c
			a.KillerIndex = len(attempts[c]) - 1 // killer's current attempt
			a.KillAt = r.At
			a.KillLine = uint64(r.Line)
			a.KillFP = r.Aux&flight.AuxFP != 0
			if a.KillLine == 0 {
				// Lazy commit-loop kill: the CST register names only the
				// core; charge the pair's most recent conflicting line.
				if lf, ok := lastConflict[pairKey(c, v)]; ok {
					a.KillLine, a.KillFP = lf.line, lf.fp
				}
			}
		case flight.AbortSelf:
			a := openOnly(c, r.At)
			if a == nil || a.KillAt != 0 || a.SelfKill {
				continue
			}
			a.SelfKill = true
			a.KillerCore = int(r.Peer)
			if a.KillerCore >= 0 && a.KillerCore < n {
				a.KillerIndex = len(attempts[a.KillerCore]) - 1
			}
			a.KillAt = r.At
			a.KillLine = uint64(r.Line)
			a.KillFP = r.Aux&flight.AuxFP != 0
			if a.KillLine == 0 && a.KillerCore >= 0 {
				if lf, ok := lastConflict[pairKey(c, a.KillerCore)]; ok {
					a.KillLine, a.KillFP = lf.line, lf.fp
				}
			}
		case flight.CMStall:
			a := openOnly(c, r.At)
			if a == nil {
				continue
			}
			a.Stall += r.Dur
			a.stalls = append(a.stalls, stall{
				At: r.At, Dur: r.Dur,
				Line: uint64(r.Line), FP: r.Aux&flight.AuxFP != 0,
			})
		case flight.Backoff:
			// Back-off follows the abort that closed the attempt: charge
			// the core's most recent closed attempt.
			if m := len(attempts[c]); m > 0 && open[c] == 0 {
				attempts[c][m-1].Backoff += r.Dur
			}
		case flight.CSTSet:
			p := int(r.Peer)
			if p >= 0 && p < n && r.Line != 0 {
				lastConflict[pairKey(c, p)] = lineFP{
					line: uint64(r.Line), fp: r.Aux&flight.AuxFP != 0,
				}
			}
		}
	}
	// Close attempts truncated by the window's end.
	for c := range attempts {
		if open[c] != 0 {
			a := &attempts[c][open[c]-1]
			a.End = winEnd
			a.Outcome = Open
		}
	}
	rep.PerCore = attempts

	var last *Attempt
	for c := range attempts {
		for i := range attempts[c] {
			a := &attempts[c][i]
			rep.Attempts++
			switch a.Outcome {
			case Committed:
				rep.Commits++
				if last == nil || a.End > last.End {
					last = a
				}
			case Aborted:
				rep.Aborts++
			}
		}
	}

	// ---- Wasted-work ledger (all aborted attempts, path or not). ----
	waste := map[int]*Waste{}
	pairs := map[[2]int]*PairBlame{}
	for c := range attempts {
		for i := range attempts[c] {
			a := &attempts[c][i]
			if a.Outcome != Aborted {
				continue
			}
			dead := uint64(a.End - a.Start)
			rep.WastedCycles += dead
			k := a.KillerCore
			wr := waste[k]
			if wr == nil {
				wr = &Waste{Killer: k}
				waste[k] = wr
			}
			wr.Kills++
			wr.Cycles += dead
			if k >= 0 {
				key := [2]int{k, c}
				pb := pairs[key]
				if pb == nil {
					pb = &PairBlame{Killer: k, Victim: c}
					pairs[key] = pb
				}
				pb.Kills++
				pb.Cycles += dead
			}
		}
	}
	for _, wr := range waste {
		rep.Wasted = append(rep.Wasted, *wr)
	}
	sort.Slice(rep.Wasted, func(i, j int) bool {
		a, b := rep.Wasted[i], rep.Wasted[j]
		if a.Cycles != b.Cycles {
			return a.Cycles > b.Cycles
		}
		return a.Killer < b.Killer
	})
	for _, pb := range pairs {
		rep.Pairs = append(rep.Pairs, *pb)
	}
	sort.Slice(rep.Pairs, func(i, j int) bool {
		a, b := rep.Pairs[i], rep.Pairs[j]
		if a.Cycles != b.Cycles {
			return a.Cycles > b.Cycles
		}
		if a.Killer != b.Killer {
			return a.Killer < b.Killer
		}
		return a.Victim < b.Victim
	})

	// ---- Critical path: backward walk from the last commit. ----
	// The coverage denominator is the record window, first to last record
	// timestamp.
	rep.Makespan = winEnd - winStart
	if last == nil {
		return rep
	}
	rep.LastCommitAt = last.End

	segKind := func(a *Attempt) string {
		switch a.Outcome {
		case Committed:
			if a.Serialized {
				return "serialized"
			}
			return "span"
		case Aborted:
			return "aborted"
		}
		return "open"
	}
	attemptAt := func(core, idx int) *Attempt {
		if core < 0 || core >= n || idx < 0 || idx >= len(attempts[core]) {
			return nil
		}
		return &attempts[core][idx]
	}

	var walk []PathSeg // latest-first; reversed below
	cur, enter := last, last.End
	// The walk revisits an attempt at most with strictly earlier entry
	// times (mutual kills), so 4x the node count bounds it comfortably.
	for guard := 0; guard <= 4*rep.Attempts+8; guard++ {
		from := cur.Start
		jump := false
		if cur.Outcome == Aborted && !cur.SelfKill && cur.KillerCore >= 0 &&
			cur.KillAt != 0 && cur.KillAt <= enter {
			if k := attemptAt(cur.KillerCore, cur.KillerIndex); k != nil && k.Start <= cur.KillAt {
				// The victim's tail [KillAt, End] is abort-delivery lag; the
				// binding constraint before KillAt is the killer's progress.
				if cur.KillAt > from {
					from = cur.KillAt
				}
				jump = true
			}
		}
		seg := PathSeg{
			Core: cur.Core, Attempt: cur.Index,
			Start: from, End: enter, Kind: segKind(cur),
		}
		if cur.Outcome == Aborted {
			seg.Line, seg.FP = cur.KillLine, cur.KillFP
		}
		if jump {
			seg.Edge = "kill"
			walk = append(walk, seg)
			cur, enter = attemptAt(cur.KillerCore, cur.KillerIndex), cur.KillAt
			continue
		}
		var p *Attempt
		if cur.Index > 0 {
			p = &attempts[cur.Core][cur.Index-1]
		}
		if p == nil || p.End > cur.Start {
			walk = append(walk, seg)
			break
		}
		edge, gapKind := "seq", "idle"
		var gapLine uint64
		var gapFP bool
		if p.Outcome == Aborted {
			edge, gapKind = "retry", "backoff"
			gapLine, gapFP = p.KillLine, p.KillFP
		}
		seg.Edge = edge
		walk = append(walk, seg)
		if cur.Start > p.End {
			walk = append(walk, PathSeg{
				Core: p.Core, Attempt: p.Index,
				Start: p.End, End: cur.Start, Kind: gapKind, Edge: "seq",
				Line: gapLine, FP: gapFP,
			})
		}
		cur, enter = p, p.End
	}
	// Chronological order; the first segment carries no inbound edge.
	for i, j := 0, len(walk)-1; i < j; i, j = i+1, j-1 {
		walk[i], walk[j] = walk[j], walk[i]
	}
	if len(walk) > 0 {
		walk[0].Edge = ""
	}
	rep.Path = walk
	rep.PathStart = walk[0].Start
	rep.PathCycles = uint64(rep.LastCommitAt - rep.PathStart)
	if rep.Makespan > 0 {
		rep.Coverage = float64(rep.PathCycles) / float64(rep.Makespan)
	}

	// ---- Per-line blame from the path's segments. ----
	blame := map[uint64]*Blame{}
	charge := func(line uint64, fp bool, cycles uint64) {
		if cycles == 0 {
			return
		}
		b := blame[line]
		if b == nil {
			b = &Blame{Line: line}
			blame[line] = b
		}
		b.Cycles += cycles
		if fp {
			b.FPCycles += cycles
		}
	}
	for _, seg := range rep.Path {
		switch seg.Kind {
		case "aborted", "backoff":
			charge(seg.Line, seg.FP, seg.Dur())
		case "span", "serialized", "open":
			// Inside live spans, the cycles the CM spent stalled behind a
			// line are that line's fault.
			a := attemptAt(seg.Core, seg.Attempt)
			if a == nil {
				continue
			}
			for _, st := range a.stalls {
				if st.At > seg.Start && st.At <= seg.End {
					charge(st.Line, st.FP, uint64(st.Dur))
				}
			}
		}
	}
	for _, b := range blame {
		if rep.PathCycles > 0 {
			b.Share = float64(b.Cycles) / float64(rep.PathCycles)
		}
		rep.Blame = append(rep.Blame, *b)
	}
	sort.Slice(rep.Blame, func(i, j int) bool {
		a, b := rep.Blame[i], rep.Blame[j]
		if a.Cycles != b.Cycles {
			return a.Cycles > b.Cycles
		}
		return a.Line < b.Line
	})
	top := opts.TopBlame
	if top <= 0 {
		top = 10
	}
	if len(rep.Blame) > top {
		rep.Blame = rep.Blame[:top]
	}
	return rep
}

// TopBlame returns the heaviest blame entry, or nil when the path has no
// attributed cost.
func (r *Report) TopBlame() *Blame {
	if r == nil || len(r.Blame) == 0 {
		return nil
	}
	return &r.Blame[0]
}

// Print writes the human-readable report.
func (r *Report) Print(w io.Writer) {
	if r == nil {
		fmt.Fprintln(w, "causal: no records")
		return
	}
	fmt.Fprintf(w, "causal: window [%d,%d] makespan %d cycles, %d attempts (%d commits, %d aborts)\n",
		r.WinStart, r.WinEnd, r.Makespan, r.Attempts, r.Commits, r.Aborts)
	if len(r.Path) == 0 {
		fmt.Fprintln(w, "  no committed attempt in the window: no critical path")
		return
	}
	fmt.Fprintf(w, "  critical path: %d cycles (%.1f%% of makespan), %d segments, [%d → %d]\n",
		r.PathCycles, r.Coverage*100, len(r.Path), r.PathStart, r.LastCommitAt)
	for _, seg := range r.Path {
		edge := ""
		if seg.Edge != "" {
			edge = " ←" + seg.Edge
		}
		extra := ""
		if seg.Line != 0 {
			extra = fmt.Sprintf(" line 0x%x", seg.Line)
			if seg.FP {
				extra += " (false positive)"
			}
		}
		fmt.Fprintf(w, "    [%8d %8d] core %d attempt %d %-10s%s%s\n",
			seg.Start, seg.End, seg.Core, seg.Attempt, seg.Kind, extra, edge)
	}
	if len(r.Blame) > 0 {
		fmt.Fprintln(w, "  blame (share of critical path):")
		for _, b := range r.Blame {
			fpShare := 0.0
			if b.Cycles > 0 {
				fpShare = float64(b.FPCycles) / float64(b.Cycles)
			}
			name := fmt.Sprintf("line 0x%-8x", b.Line)
			if b.Line == 0 {
				name = "(unattributed) "
			}
			fmt.Fprintf(w, "    %s %8d cycles  %5.1f%%  (%.0f%% from false positives)\n",
				name, b.Cycles, b.Share*100, fpShare*100)
		}
	}
	if len(r.Wasted) > 0 {
		fmt.Fprintf(w, "  wasted work: %d cycles in aborted attempts\n", r.WastedCycles)
		for _, wr := range r.Wasted {
			who := fmt.Sprintf("core %d", wr.Killer)
			if wr.Killer < 0 {
				who = "unattributed"
			}
			fmt.Fprintf(w, "    %-12s killed %4d attempts, %8d cycles\n", who, wr.Kills, wr.Cycles)
		}
	}
}
