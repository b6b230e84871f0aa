// Package conflictgraph turns a flight-recorder dump (internal/flight)
// into an explanation of contention: the directed conflict graph between
// cores over the recorded interval, the abort graph (who killed whom), a
// hot-line ranking weighted by the aborts each line contributed to, and a
// classification of the contention pathologies the TM literature uses to
// explain eager-vs-lazy behavior:
//
//   - Starvation chains: one core aborts many times in a row while the
//     cores killing it make progress.
//   - Livelock / dueling-abort cycles: a cycle in the abort graph (A keeps
//     aborting B while B keeps aborting A, possibly through intermediates),
//     the classic eager-mode pathology on RandomGraph-like workloads.
//   - Friendly fire: a committer (lazy mode) or eager winner aborts a
//     transaction whose current attempt never conflicted with it — the
//     CST bit named a conflicting *predecessor* on the same core, and an
//     innocent successor was killed. FlexTM's signature screen exists
//     precisely to suppress these.
//
// The analyzer is offline and allocation-relaxed: it runs on demand
// (`flextm -profile`), on a watchdog trip, or after a chaos-campaign
// violation, never on the simulated fast path.
package conflictgraph

import (
	"fmt"
	"io"
	"sort"

	"flextm/internal/cst"
	"flextm/internal/flight"
	"flextm/internal/scc"
	"flextm/internal/sim"
)

// Fixed analysis thresholds.
const (
	// starvationRun is the consecutive-abort run length on one core that
	// qualifies as starvation.
	starvationRun = 8
	// cycleMinKills is the per-edge kill count below which an abort edge is
	// ignored when searching for dueling cycles: one reciprocal kill is an
	// ordinary conflict, not a livelock.
	cycleMinKills = 2
	// topLines caps the hot-line ranking.
	topLines = 10
)

// Options describe the machine the records came from.
type Options struct {
	// Cores is the machine's core count; 0 infers it from the records.
	Cores int
}

func (o Options) withDefaults(recs []flight.Rec) Options {
	if o.Cores <= 0 {
		for _, r := range recs {
			if int(r.Core) >= o.Cores {
				o.Cores = int(r.Core) + 1
			}
			if int(r.Peer) >= o.Cores {
				o.Cores = int(r.Peer) + 1
			}
		}
		if o.Cores == 0 {
			o.Cores = 1
		}
	}
	return o
}

// ConflictEdge is one directed edge of the conflict graph: requestor ->
// responder, with per-CST-kind counts (the kind as set in the requestor's
// table: R-W means "my read hit their write", etc.).
type ConflictEdge struct {
	From int    `json:"from"`
	To   int    `json:"to"`
	RW   uint64 `json:"rw"`
	WR   uint64 `json:"wr"`
	WW   uint64 `json:"ww"`
}

// Total returns the edge's conflict count across kinds.
func (e ConflictEdge) Total() uint64 { return e.RW + e.WR + e.WW }

// AbortEdge is one directed edge of the abort graph: killer -> victim.
type AbortEdge struct {
	Killer int    `json:"killer"`
	Victim int    `json:"victim"`
	Kills  uint64 `json:"kills"`
}

// HotLine is one cache line ranked by the contention it caused. Spilled
// marks lines that left the L1 through the overflow table, attributing the
// conflict through Wsig/OT provenance rather than cache residency.
type HotLine struct {
	Line        uint64 `json:"line"`
	Conflicts   uint64 `json:"conflicts"`
	AbortWeight uint64 `json:"abortWeight"`
	Spilled     bool   `json:"spilled,omitempty"`
}

// PathologyKind names one detected contention pathology.
type PathologyKind string

// The detected pathology classes.
const (
	StarvationChain PathologyKind = "starvation-chain"
	AbortCycle      PathologyKind = "abort-cycle"
	FriendlyFire    PathologyKind = "friendly-fire"
)

// Pathology is one detected instance.
type Pathology struct {
	Kind   PathologyKind `json:"kind"`
	Cores  []int         `json:"cores"`
	Count  uint64        `json:"count"`
	Detail string        `json:"detail"`
}

// CoreStats summarizes one core's recorded activity.
type CoreStats struct {
	Core         int    `json:"core"`
	Commits      uint64 `json:"commits"`
	Aborts       uint64 `json:"aborts"`
	Kills        uint64 `json:"kills"` // enemies this core aborted
	Alerts       uint64 `json:"alerts"`
	Spills       uint64 `json:"spills"`
	Refusals     uint64 `json:"commitRefusals"`
	MaxAbortRun  int    `json:"maxAbortRun"`
	WatchdogTrip uint64 `json:"watchdogTrips"`
	Escalations  uint64 `json:"escalations"`
}

// Report is the full analysis of one recorded interval.
type Report struct {
	Start       sim.Time       `json:"start"`
	End         sim.Time       `json:"end"`
	Records     int            `json:"records"`
	Overwritten uint64         `json:"overwritten,omitempty"`
	Commits     uint64         `json:"commits"`
	Aborts      uint64         `json:"aborts"`
	PerCore     []CoreStats    `json:"perCore"`
	Edges       []ConflictEdge `json:"conflictEdges"`
	AbortEdges  []AbortEdge    `json:"abortEdges"`
	HotLines    []HotLine      `json:"hotLines"`
	Pathologies []Pathology    `json:"pathologies"`
}

// PathologyCounts returns the per-kind instance totals (the bench-artifact
// summary form).
func (r *Report) PathologyCounts() map[string]uint64 {
	out := map[string]uint64{}
	for _, p := range r.Pathologies {
		out[string(p.Kind)] += p.Count
	}
	return out
}

// Has reports whether any pathology of the given kind was detected.
func (r *Report) Has(k PathologyKind) bool {
	for _, p := range r.Pathologies {
		if p.Kind == k {
			return true
		}
	}
	return false
}

// Analyze reconstructs the conflict graph from a record stream (as returned
// by Recorder.Snapshot: ordered by Seq) and classifies its pathologies.
func Analyze(recs []flight.Rec, opts Options) *Report {
	opts = opts.withDefaults(recs)
	n := opts.Cores
	rep := &Report{Records: len(recs)}
	if len(recs) > 0 {
		rep.Start, rep.End = recs[0].At, recs[0].At
		for _, r := range recs {
			if r.At < rep.Start {
				rep.Start = r.At
			}
			if r.At > rep.End {
				rep.End = r.At
			}
		}
	}

	stats := make([]CoreStats, n)
	for i := range stats {
		stats[i].Core = i
	}

	type lineInfo struct {
		conflicts   uint64
		abortWeight uint64
		spilled     bool
	}
	lines := map[uint64]*lineInfo{}
	lineOf := func(l uint64) *lineInfo {
		li := lines[l]
		if li == nil {
			li = &lineInfo{}
			lines[l] = li
		}
		return li
	}

	edges := map[[2]int]*ConflictEdge{}
	kills := map[[2]int]uint64{}
	friendly := map[[2]int]uint64{}

	// Per-core attempt state. conflicted[c] is the bitmask of peers core c
	// has a recorded conflict with in its *current* attempt; touched[c] the
	// conflicting lines of that attempt (each charged one abort-weight if
	// the attempt dies). begun tracks whether the window saw c's TxnBegin,
	// so truncated streams do not produce false friendly-fire verdicts.
	conflicted := make([]uint64, n)
	touched := make([][]uint64, n)
	begun := make([]bool, n)
	abortRun := make([]int, n)
	runKillers := make([]uint64, n) // killers seen during the current abort run
	killedBy := make([]uint64, n)   // killers that already hit the current victim attempt
	starved := map[int]*Pathology{}

	for _, r := range recs {
		c := int(r.Core)
		if c < 0 || c >= n {
			continue
		}
		switch r.Kind {
		case flight.TxnBegin:
			begun[c] = true
			conflicted[c] = 0
			killedBy[c] = 0
			touched[c] = touched[c][:0]
		case flight.TxnCommit:
			stats[c].Commits++
			rep.Commits++
			abortRun[c] = 0
			runKillers[c] = 0
			conflicted[c] = 0
			killedBy[c] = 0
			touched[c] = touched[c][:0]
		case flight.TxnAbort:
			stats[c].Aborts++
			rep.Aborts++
			for _, l := range touched[c] {
				lineOf(l).abortWeight++
			}
			touched[c] = touched[c][:0]
			conflicted[c] = 0
			killedBy[c] = 0
			abortRun[c]++
			if abortRun[c] >= starvationRun {
				p := starved[c]
				if p == nil {
					p = &Pathology{Kind: StarvationChain, Cores: []int{c}}
					starved[c] = p
				}
				p.Count = uint64(abortRun[c])
			}
		case flight.AbortEnemy:
			v := int(r.Peer)
			if v < 0 || v >= n {
				continue
			}
			stats[c].Kills++
			// Only the first CAS on a victim attempt lands; later parallel
			// kills of the same pair in the same attempt are no-ops and must
			// not inflate the abort edge (and with it Tarjan's cycle weight).
			if killedBy[v]&(1<<uint(c)) == 0 {
				killedBy[v] |= 1 << uint(c)
				kills[[2]int{c, v}]++
			}
			runKillers[v] |= 1 << uint(c)
			// Friendly fire: the victim's current attempt has no recorded
			// conflict with the killer — the CST bit that motivated this
			// kill belonged to a finished predecessor on the same core.
			if begun[v] && conflicted[v]&(1<<uint(c)) == 0 {
				friendly[[2]int{c, v}]++
			}
		case flight.AbortSelf:
			// The abort itself arrives as a TxnAbort; nothing extra here.
		case flight.CSTSet:
			p := int(r.Peer)
			if p < 0 || p >= n {
				continue
			}
			e := edges[[2]int{c, p}]
			if e == nil {
				e = &ConflictEdge{From: c, To: p}
				edges[[2]int{c, p}] = e
			}
			switch cst.Kind(r.Aux & flight.AuxMask) {
			case cst.RW:
				e.RW++
			case cst.WR:
				e.WR++
			case cst.WW:
				e.WW++
			}
			conflicted[c] |= 1 << uint(p)
			conflicted[p] |= 1 << uint(c)
			li := lineOf(uint64(r.Line))
			li.conflicts++
			touched[c] = append(touched[c], uint64(r.Line))
			touched[p] = append(touched[p], uint64(r.Line))
		case flight.AOUAlert:
			stats[c].Alerts++
		case flight.OTSpill:
			stats[c].Spills++
			lineOf(uint64(r.Line)).spilled = true
		case flight.CommitRefused:
			stats[c].Refusals++
		case flight.WatchdogTrip:
			stats[c].WatchdogTrip++
		case flight.Escalate:
			stats[c].Escalations++
		}
		if abortRun[c] > stats[c].MaxAbortRun {
			stats[c].MaxAbortRun = abortRun[c]
		}
	}
	rep.PerCore = stats

	// Freeze the graphs in deterministic order.
	for _, e := range edges {
		rep.Edges = append(rep.Edges, *e)
	}
	sort.Slice(rep.Edges, func(i, j int) bool {
		a, b := rep.Edges[i], rep.Edges[j]
		if a.Total() != b.Total() {
			return a.Total() > b.Total()
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	for k, c := range kills {
		rep.AbortEdges = append(rep.AbortEdges, AbortEdge{Killer: k[0], Victim: k[1], Kills: c})
	}
	sort.Slice(rep.AbortEdges, func(i, j int) bool {
		a, b := rep.AbortEdges[i], rep.AbortEdges[j]
		if a.Kills != b.Kills {
			return a.Kills > b.Kills
		}
		if a.Killer != b.Killer {
			return a.Killer < b.Killer
		}
		return a.Victim < b.Victim
	})

	// Hot lines: rank by abort-weight, then conflict count.
	for l, li := range lines {
		if li.conflicts == 0 && li.abortWeight == 0 {
			continue
		}
		rep.HotLines = append(rep.HotLines, HotLine{
			Line: l, Conflicts: li.conflicts, AbortWeight: li.abortWeight, Spilled: li.spilled,
		})
	}
	sort.Slice(rep.HotLines, func(i, j int) bool {
		a, b := rep.HotLines[i], rep.HotLines[j]
		if a.AbortWeight != b.AbortWeight {
			return a.AbortWeight > b.AbortWeight
		}
		if a.Conflicts != b.Conflicts {
			return a.Conflicts > b.Conflicts
		}
		return a.Line < b.Line
	})
	if len(rep.HotLines) > topLines {
		rep.HotLines = rep.HotLines[:topLines]
	}

	rep.Pathologies = append(rep.Pathologies, cyclePathologies(rep.AbortEdges, n)...)
	// Starvation: report each starved core with its dominant killers.
	var starvedCores []int
	for c := range starved {
		starvedCores = append(starvedCores, c)
	}
	sort.Ints(starvedCores)
	for _, c := range starvedCores {
		p := starved[c]
		var killers []int
		for k := 0; k < n; k++ {
			if runKillers[c]&(1<<uint(k)) != 0 {
				killers = append(killers, k)
			}
		}
		p.Detail = fmt.Sprintf("core %d aborted %d times in a row (killers %v, %d commits while starved)",
			c, p.Count, killers, stats[c].Commits)
		p.Cores = append(p.Cores, killers...)
		rep.Pathologies = append(rep.Pathologies, *p)
	}
	// Friendly fire, per killer->victim pair.
	var ffPairs [][2]int
	for k := range friendly {
		ffPairs = append(ffPairs, k)
	}
	sort.Slice(ffPairs, func(i, j int) bool {
		if ffPairs[i][0] != ffPairs[j][0] {
			return ffPairs[i][0] < ffPairs[j][0]
		}
		return ffPairs[i][1] < ffPairs[j][1]
	})
	for _, k := range ffPairs {
		rep.Pathologies = append(rep.Pathologies, Pathology{
			Kind: FriendlyFire, Cores: []int{k[0], k[1]}, Count: friendly[k],
			Detail: fmt.Sprintf("core %d aborted core %d %d time(s) with no conflict in the victim's current attempt",
				k[0], k[1], friendly[k]),
		})
	}
	return rep
}

// cyclePathologies finds strongly connected components of the abort graph
// restricted to edges with at least cycleMinKills kills; every non-trivial SCC
// (or reciprocal pair) is a dueling-abort cycle.
func cyclePathologies(edges []AbortEdge, n int) []Pathology {
	// The graph in compressed rows, each killer's victims in edge order.
	at := make([]int32, n+1)
	for _, e := range edges {
		if e.Kills >= cycleMinKills {
			at[e.Killer+1]++
		}
	}
	for v := 0; v < n; v++ {
		at[v+1] += at[v]
	}
	if at[n] == 0 {
		return nil
	}
	to := make([]int32, at[n])
	// Fill each row from its start, leaving at[v] at row v+1's start; then
	// shift the row starts back into place.
	for _, e := range edges {
		if e.Kills >= cycleMinKills {
			to[at[e.Killer]] = int32(e.Victim)
			at[e.Killer]++
		}
	}
	copy(at[1:], at[:n])
	at[0] = 0

	var out []Pathology
	in := make([]bool, n)
	scc.Components(at, to, func(comp []int32) {
		cores := make([]int, len(comp))
		for i, c := range comp {
			cores[i] = int(c)
			in[c] = true
		}
		sort.Ints(cores)
		var total uint64
		for _, e := range edges {
			if e.Kills >= cycleMinKills && in[e.Killer] && in[e.Victim] {
				total += e.Kills
			}
		}
		for _, c := range comp {
			in[c] = false
		}
		out = append(out, Pathology{
			Kind: AbortCycle, Cores: cores, Count: total,
			Detail: fmt.Sprintf("cores %v abort each other in a cycle (%d kills inside the cycle)", cores, total),
		})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}

// Print writes the human-readable profile (the body of `flextm -profile`).
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "interval [%d, %d] cycles, %d records", r.Start, r.End, r.Records)
	if r.Overwritten > 0 {
		fmt.Fprintf(w, " (+%d overwritten: oldest history lost)", r.Overwritten)
	}
	fmt.Fprintf(w, "\ncommits %d, aborts %d\n", r.Commits, r.Aborts)

	any := false
	for _, cs := range r.PerCore {
		if cs.Commits+cs.Aborts+cs.Kills+cs.Alerts+cs.Spills+cs.Refusals+cs.WatchdogTrip == 0 {
			continue
		}
		if !any {
			fmt.Fprintf(w, "%4s %8s %7s %6s %7s %7s %8s %7s\n",
				"core", "commits", "aborts", "kills", "alerts", "spills", "refusals", "maxrun")
			any = true
		}
		fmt.Fprintf(w, "%4d %8d %7d %6d %7d %7d %8d %7d\n",
			cs.Core, cs.Commits, cs.Aborts, cs.Kills, cs.Alerts, cs.Spills, cs.Refusals, cs.MaxAbortRun)
	}

	if len(r.Edges) > 0 {
		fmt.Fprintln(w, "conflict edges (requestor -> responder, by CST kind):")
		for _, e := range r.Edges {
			fmt.Fprintf(w, "  %2d -> %-2d  R-W=%-5d W-R=%-5d W-W=%-5d\n", e.From, e.To, e.RW, e.WR, e.WW)
		}
	}
	if len(r.AbortEdges) > 0 {
		fmt.Fprintln(w, "abort edges (killer -> victim):")
		for _, e := range r.AbortEdges {
			fmt.Fprintf(w, "  %2d -> %-2d  kills=%d\n", e.Killer, e.Victim, e.Kills)
		}
	}
	if len(r.HotLines) > 0 {
		fmt.Fprintln(w, "hot lines (by abort-weight):")
		for _, h := range r.HotLines {
			tag := ""
			if h.Spilled {
				tag = "  [OT-spilled]"
			}
			fmt.Fprintf(w, "  line %#x  conflicts=%-5d abort-weight=%d%s\n",
				h.Line, h.Conflicts, h.AbortWeight, tag)
		}
	}
	if len(r.Pathologies) == 0 {
		fmt.Fprintln(w, "pathologies: none detected")
		return
	}
	fmt.Fprintln(w, "pathologies:")
	for _, p := range r.Pathologies {
		fmt.Fprintf(w, "  [%s] %s\n", p.Kind, p.Detail)
	}
}

// WriteDOT renders the graphs in Graphviz DOT: gray edges are CST
// conflicts (labeled with per-kind counts), red edges are kills. Cores in a
// detected abort cycle are drawn red; starved cores orange.
func (r *Report) WriteDOT(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "digraph conflicts {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  rankdir=LR;")
	fmt.Fprintln(w, "  node [shape=circle];")
	inCycle := map[int]bool{}
	starved := map[int]bool{}
	for _, p := range r.Pathologies {
		switch p.Kind {
		case AbortCycle:
			for _, c := range p.Cores {
				inCycle[c] = true
			}
		case StarvationChain:
			if len(p.Cores) > 0 {
				starved[p.Cores[0]] = true
			}
		}
	}
	for _, cs := range r.PerCore {
		if cs.Commits+cs.Aborts+cs.Kills == 0 {
			continue
		}
		attr := ""
		switch {
		case inCycle[cs.Core]:
			attr = ", color=red, penwidth=2"
		case starved[cs.Core]:
			attr = ", color=orange, penwidth=2"
		}
		fmt.Fprintf(w, "  c%d [label=\"core %d\\n%dc/%da\"%s];\n",
			cs.Core, cs.Core, cs.Commits, cs.Aborts, attr)
	}
	for _, e := range r.Edges {
		fmt.Fprintf(w, "  c%d -> c%d [color=gray, label=\"rw%d wr%d ww%d\"];\n",
			e.From, e.To, e.RW, e.WR, e.WW)
	}
	for _, e := range r.AbortEdges {
		fmt.Fprintf(w, "  c%d -> c%d [color=red, label=\"%d kills\"];\n",
			e.Killer, e.Victim, e.Kills)
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
