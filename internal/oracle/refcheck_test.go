package oracle

// This file keeps the checker as it stood before dense address ids,
// per-reader edge deduplication and lazily rendered CST hints, renamed
// (Check → refCheck, txn → refTxn, version → refVersion, checker →
// refChecker, currentAt → refCurrentAt) and otherwise verbatim. The
// differential test in check_diff_test.go holds Check to byte-identical
// reports against it; do not "fix" or speed up this copy.

import (
	"fmt"
	"sort"

	"flextm/internal/memory"
	"flextm/internal/sim"
)

// refTxn is one committed transaction reconstructed from the log.
type refTxn struct {
	id        int
	core      int
	nt        bool
	beginSeq  uint64
	commitSeq uint64
	commitAt  sim.Time
	ops       []Op // reads and writes, in log order
}

// lastOwnWrite returns the transaction's most recent write to a strictly
// before sequence stamp s, if any.
func (t *refTxn) lastOwnWrite(a memory.Addr, s uint64) (uint64, bool) {
	var v uint64
	found := false
	for i := range t.ops {
		op := &t.ops[i]
		if op.Seq >= s {
			break
		}
		if (op.Kind == OpWrite || op.Kind == OpNTWrite) && op.Addr == a {
			v, found = op.Val, true
		}
	}
	return v, found
}

// finalWrites returns the last written value per address — the version the
// commit published.
func (t *refTxn) finalWrites() map[memory.Addr]uint64 {
	out := make(map[memory.Addr]uint64)
	for i := range t.ops {
		op := &t.ops[i]
		if op.Kind == OpWrite || op.Kind == OpNTWrite {
			out[op.Addr] = op.Val
		}
	}
	return out
}

// refVersion is one committed value of an address.
type refVersion struct {
	writer    int // txn id; -1 for the initial value
	val       uint64
	commitSeq uint64 // 0 for the initial value
}

// refChecker carries the state of one Check invocation.
type refChecker struct {
	maxViol  int
	rep      *Report
	txns     []*refTxn
	chains   map[memory.Addr][]refVersion
	initial  map[memory.Addr]uint64
	inferred map[memory.Addr]bool
	edges    map[[2]int][]Edge // adjacency with labels, deduped by (from,to,kind,addr)
	edgeSeen map[string]bool
	adj      map[int][]int
}

// refCheck analyzes a history and returns the verdict. It never panics on
// malformed input: structural problems are reported in Report.Malformed and
// the analysis continues with what can be salvaged.
func refCheck(h History, maxViolations int) *Report {
	c := &refChecker{
		maxViol:  maxViolations,
		rep:      &Report{},
		chains:   make(map[memory.Addr][]refVersion),
		initial:  make(map[memory.Addr]uint64),
		inferred: make(map[memory.Addr]bool),
		edges:    make(map[[2]int][]Edge),
		edgeSeen: make(map[string]bool),
		adj:      make(map[int][]int),
	}
	for a, v := range h.Initial {
		c.initial[a] = v
	}
	c.collect(h.Ops)
	c.buildChains()
	c.resolveReads()
	c.findCycles()
	return c.rep
}

// collect reconstructs committed transactions from the raw op stream. Log
// order is authoritative; the recorded Seq stamps are cross-checked and the
// ops re-stamped by position when they disagree, so a damaged log cannot
// break the ordering logic downstream.
func (c *refChecker) collect(ops []Op) {
	malformed := func(format string, args ...interface{}) {
		if len(c.rep.Malformed) < 32 {
			c.rep.Malformed = append(c.rep.Malformed, fmt.Sprintf(format, args...))
		}
	}
	var lastSeq uint64
	restamped := false
	for i := range ops {
		if ops[i].Seq <= lastSeq {
			restamped = true
		}
		lastSeq = ops[i].Seq
	}
	if restamped {
		malformed("non-monotone sequence stamps: re-stamped by log position")
		// Re-stamp a copy: Check is a pure function of the history, and
		// callers (schedule replay, the fuzzer's determinism cross-check)
		// rely on the input surviving untouched.
		fixed := make([]Op, len(ops))
		copy(fixed, ops)
		for i := range fixed {
			fixed[i].Seq = uint64(i) + 1
		}
		ops = fixed
	}

	open := make(map[int]*refTxn) // per-core attempt in flight
	var committed []*refTxn
	for i := range ops {
		op := ops[i]
		switch op.Kind {
		case OpBegin:
			if open[op.Core] != nil {
				malformed("core %d: begin at seq %d with an attempt already open (previous discarded)", op.Core, op.Seq)
				c.rep.Aborted++
			}
			open[op.Core] = &refTxn{core: op.Core, beginSeq: op.Seq}
		case OpRead, OpWrite:
			t := open[op.Core]
			if t == nil {
				malformed("core %d: %s at seq %d outside any transaction (skipped)", op.Core, op.Kind, op.Seq)
				continue
			}
			t.ops = append(t.ops, op)
		case OpCommit:
			t := open[op.Core]
			if t == nil {
				malformed("core %d: commit at seq %d without a begin (skipped)", op.Core, op.Seq)
				continue
			}
			t.commitSeq = op.Seq
			t.commitAt = op.At
			committed = append(committed, t)
			open[op.Core] = nil
		case OpAbort:
			if open[op.Core] == nil {
				malformed("core %d: abort at seq %d without a begin (skipped)", op.Core, op.Seq)
				continue
			}
			open[op.Core] = nil
			c.rep.Aborted++
		case OpNTRead, OpNTWrite:
			// A singleton transaction: strong isolation serializes the
			// access at its own instant, independent of any open attempt.
			committed = append(committed, &refTxn{
				core: op.Core, nt: true,
				beginSeq: op.Seq, commitSeq: op.Seq, commitAt: op.At,
				ops: []Op{op},
			})
		default:
			malformed("unknown op kind %d at seq %d (skipped)", op.Kind, op.Seq)
		}
	}
	for _, t := range open {
		if t != nil {
			c.rep.Truncated++
		}
	}
	sort.SliceStable(committed, func(i, j int) bool { return committed[i].commitSeq < committed[j].commitSeq })
	for i, t := range committed {
		t.id = i
	}
	c.txns = committed
	c.rep.Txns = len(committed)
	for _, t := range committed {
		for i := range t.ops {
			switch t.ops[i].Kind {
			case OpRead, OpNTRead:
				c.rep.Reads++
			case OpWrite, OpNTWrite:
				c.rep.Writes++
			}
		}
	}
}

// buildChains derives the per-address version order. Version order is
// commit order: CAS-Commit publishes a transaction's whole write set
// atomically (flash commit), and the engine's one-thread-at-a-time
// execution makes commit instants totally ordered, so the order is
// physically exact, not an approximation.
func (c *refChecker) buildChains() {
	for a, v := range c.initial {
		c.chains[a] = []refVersion{{writer: -1, val: v}}
	}
	for _, t := range c.txns {
		for a, v := range t.finalWrites() {
			if _, ok := c.chains[a]; !ok {
				// No registered initial value: leave a placeholder the
				// inference step may fill in from an early read.
				c.chains[a] = []refVersion{{writer: -1, val: 0}}
				c.inferred[a] = false // unknown until a pre-version read fixes it
			}
			c.chains[a] = append(c.chains[a], refVersion{writer: t.id, val: v, commitSeq: t.commitSeq})
		}
	}
	// Infer unknown initial values from the earliest read of each address
	// that precedes its first committed write: nothing else can have
	// produced that value in a well-formed history.
	for _, t := range c.txns {
		for i := range t.ops {
			op := &t.ops[i]
			if op.Kind != OpRead && op.Kind != OpNTRead {
				continue
			}
			chain, ok := c.chains[op.Addr]
			if !ok {
				// Address only ever read: its initial value is whatever the
				// first read saw (conflicting later reads become phantom
				// violations via the normal path).
				c.chains[op.Addr] = []refVersion{{writer: -1, val: op.Val}}
				c.initial[op.Addr] = op.Val
				c.inferred[op.Addr] = true
				continue
			}
			if _, registered := c.initial[op.Addr]; registered {
				continue
			}
			if done := c.inferred[op.Addr]; done {
				continue
			}
			firstCommit := uint64(0)
			if len(chain) > 1 {
				firstCommit = chain[1].commitSeq
			}
			if firstCommit == 0 || op.Seq < firstCommit {
				chain[0].val = op.Val
				c.initial[op.Addr] = op.Val
				c.inferred[op.Addr] = true
			}
		}
	}
	// W→W edges along each chain; adjacent committers suffice for cycle
	// detection (the rest are implied by transitivity). Addresses are
	// visited in sorted order: edge insertion order decides adjacency
	// order, and with it which witness cycle findCycles reports — ranging
	// over the map here would randomize the report between runs.
	addrs := make([]memory.Addr, 0, len(c.chains))
	for a := range c.chains {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		chain := c.chains[a]
		for i := 2; i < len(chain); i++ {
			from, to := chain[i-1].writer, chain[i].writer
			if from == to {
				continue
			}
			c.addEdge(Edge{From: from, To: to, Kind: "WW", Addr: a,
				CST: c.cstHint("WW", from, to)})
		}
	}
}

// refCurrentAt returns the index in chain of the version visible at sequence
// stamp s (the latest version whose commit precedes s).
func refCurrentAt(chain []refVersion, s uint64) int {
	idx := 0
	for i := 1; i < len(chain); i++ {
		if chain[i].commitSeq < s {
			idx = i
		} else {
			break
		}
	}
	return idx
}

// resolveReads maps every committed read to the version it observed,
// accumulating W→R and R→W edges and reporting single-read anomalies.
func (c *refChecker) resolveReads() {
	for _, t := range c.txns {
		for i := range t.ops {
			op := &t.ops[i]
			if op.Kind != OpRead && op.Kind != OpNTRead {
				continue
			}
			c.rep.Reads += 0
			if own, ok := t.lastOwnWrite(op.Addr, op.Seq); ok {
				if own != op.Val {
					c.violate(Violation{
						Kind: VInternalRead,
						Summary: fmt.Sprintf("T%d (core %d) read %d at addr %d but its own pending write was %d: broken speculative versioning",
							t.id, t.core, op.Val, op.Addr, own),
						Witness: c.witness([]int{t.id}, []memory.Addr{op.Addr}),
					})
				}
				continue
			}
			chain := c.chains[op.Addr]
			if chain == nil {
				// Read of an address with neither writes nor an initial
				// value; chains inference created one for read-only
				// addresses, so this only happens for damaged logs.
				continue
			}
			expIdx := refCurrentAt(chain, op.Seq)
			if chain[expIdx].val == op.Val {
				c.dependOn(t, op, chain, expIdx)
				continue
			}
			// Mismatch against the version physically current at the read:
			// find which version the value actually came from.
			stale, future := -1, -1
			for j := range chain {
				if chain[j].val != op.Val {
					continue
				}
				if j <= expIdx {
					stale = j // keep the latest stale candidate
				} else if future == -1 {
					future = j // keep the earliest future candidate
				}
			}
			switch {
			case stale >= 0:
				v := Violation{
					Kind: VStaleRead,
					Summary: fmt.Sprintf("T%d (core %d) read addr %d = %d (version of T%d) after T%d had already committed %d: lost update",
						t.id, t.core, op.Addr, op.Val, chain[stale].writer, chain[expIdx].writer, chain[expIdx].val),
				}
				c.dependOn(t, op, chain, stale)
				v.Edges = c.edgesTouching(t.id, op.Addr)
				v.Witness = c.witness(append(c.writersOf(chain, stale, expIdx), t.id), []memory.Addr{op.Addr})
				c.violate(v)
			case future >= 0:
				rel := "before its writer committed"
				if chain[future].commitSeq > t.commitSeq {
					rel = "from a writer that committed after the reader"
				}
				v := Violation{
					Kind: VFutureRead,
					Summary: fmt.Sprintf("T%d (core %d) read addr %d = %d %s (T%d): dirty read of speculative data",
						t.id, t.core, op.Addr, op.Val, rel, chain[future].writer),
				}
				c.dependOn(t, op, chain, future)
				v.Edges = c.edgesTouching(t.id, op.Addr)
				v.Witness = c.witness([]int{chain[future].writer, t.id}, []memory.Addr{op.Addr})
				c.violate(v)
			default:
				c.violate(Violation{
					Kind: VPhantomValue,
					Summary: fmt.Sprintf("T%d (core %d) read addr %d = %d, a value no committed or initial version ever held (expected %d from T%d)",
						t.id, t.core, op.Addr, op.Val, chain[expIdx].val, chain[expIdx].writer),
					Witness: c.witness([]int{t.id}, []memory.Addr{op.Addr}),
				})
			}
		}
	}
}

// dependOn records the W→R edge from the version's writer and the R→W
// anti-dependency toward the next version's writer.
func (c *refChecker) dependOn(t *refTxn, op *Op, chain []refVersion, idx int) {
	if w := chain[idx].writer; w >= 0 && w != t.id {
		c.addEdge(Edge{From: w, To: t.id, Kind: "WR", Addr: op.Addr,
			CST: c.cstHint("WR", w, t.id)})
	}
	if idx+1 < len(chain) {
		if w := chain[idx+1].writer; w >= 0 && w != t.id {
			c.addEdge(Edge{From: t.id, To: w, Kind: "RW", Addr: op.Addr,
				CST: c.cstHint("RW", t.id, w)})
		}
	}
}

// writersOf lists the distinct writer txns of chain[lo..hi].
func (c *refChecker) writersOf(chain []refVersion, lo, hi int) []int {
	var ids []int
	seen := map[int]bool{}
	for j := lo; j <= hi && j < len(chain); j++ {
		if w := chain[j].writer; w >= 0 && !seen[w] {
			seen[w] = true
			ids = append(ids, w)
		}
	}
	return ids
}

// cstHint names the CST bits that should have surfaced the dependency, in
// the paper's terms (Figure 1's CST exchange and Figure 3's commit rule).
func (c *refChecker) cstHint(kind string, from, to int) string {
	cf, ct := c.coreOf(from), c.coreOf(to)
	switch kind {
	case "WR":
		return fmt.Sprintf("writer core %d's W-R should name reader core %d; the writer's commit must abort or scrub the reader", cf, ct)
	case "RW":
		return fmt.Sprintf("reader core %d's R-W names writer core %d, whose W-R names the reader: the writer's CAS-Commit must abort the live reader (Figure 3, line 2)", cf, ct)
	case "WW":
		return fmt.Sprintf("cores %d and %d hold each other's W-W bits; the first CAS-Commit must abort the other speculative writer", cf, ct)
	}
	return ""
}

func (c *refChecker) coreOf(id int) int {
	if id >= 0 && id < len(c.txns) {
		return c.txns[id].core
	}
	return -1
}

// addEdge inserts a labeled, deduplicated DSR edge.
func (c *refChecker) addEdge(e Edge) {
	if e.From == e.To {
		return
	}
	key := fmt.Sprintf("%d>%d:%s:%d", e.From, e.To, e.Kind, e.Addr)
	if c.edgeSeen[key] {
		return
	}
	c.edgeSeen[key] = true
	k := [2]int{e.From, e.To}
	if len(c.edges[k]) == 0 {
		c.adj[e.From] = append(c.adj[e.From], e.To)
	}
	c.edges[k] = append(c.edges[k], e)
}

// edgesTouching returns the recorded edges incident to txn id on addr.
func (c *refChecker) edgesTouching(id int, a memory.Addr) []Edge {
	var out []Edge
	for _, es := range c.edges {
		for _, e := range es {
			if e.Addr == a && (e.From == id || e.To == id) {
				out = append(out, e)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		if out[i].To != out[j].To {
			return out[i].To < out[j].To
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// findCycles runs Tarjan's SCC over the DSR graph and reports one shortest
// witness cycle per non-trivial component.
func (c *refChecker) findCycles() {
	n := len(c.txns)
	if n == 0 {
		return
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0
	var sccs [][]int

	// Iterative Tarjan: violation-grade histories can chain thousands of
	// transactions, so recursion depth must not scale with history length.
	type frame struct {
		v, ei int
	}
	for start := 0; start < n; start++ {
		if index[start] != -1 {
			continue
		}
		frames := []frame{{v: start}}
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			v := f.v
			if f.ei == 0 {
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.ei < len(c.adj[v]) {
				w := c.adj[v][f.ei]
				f.ei++
				if index[w] == -1 {
					frames = append(frames, frame{v: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				if len(comp) > 1 {
					sccs = append(sccs, comp)
				} else if c.selfLoop(comp[0]) {
					sccs = append(sccs, comp)
				}
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
		}
	}

	for _, comp := range sccs {
		cyc := c.shortestCycle(comp)
		if len(cyc) == 0 {
			continue
		}
		edges := make([]Edge, 0, len(cyc))
		addrs := map[memory.Addr]bool{}
		for i := range cyc {
			from, to := cyc[i], cyc[(i+1)%len(cyc)]
			es := c.edges[[2]int{from, to}]
			if len(es) == 0 {
				continue
			}
			edges = append(edges, es[0])
			addrs[es[0].Addr] = true
		}
		var as []memory.Addr
		for a := range addrs {
			as = append(as, a)
		}
		sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
		c.violate(Violation{
			Kind: VCycle,
			Summary: fmt.Sprintf("direct-serialization-graph cycle over %d transactions (component of %d): no serial order explains the observed values",
				len(cyc), len(comp)),
			Edges:   edges,
			Witness: c.witness(cyc, as),
		})
	}
}

// selfLoop reports whether v has an edge to itself (impossible for deduped
// DSR edges, but kept for robustness against future edge sources).
func (c *refChecker) selfLoop(v int) bool {
	return len(c.edges[[2]int{v, v}]) > 0
}

// shortestCycle finds a minimal cycle inside one SCC via BFS from its
// smallest node, restricted to component members.
func (c *refChecker) shortestCycle(comp []int) []int {
	in := map[int]bool{}
	for _, v := range comp {
		in[v] = true
	}
	start := comp[0]
	for _, v := range comp {
		if v < start {
			start = v
		}
	}
	prev := map[int]int{start: -1}
	queue := []int{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range c.adj[v] {
			if !in[w] {
				continue
			}
			if w == start {
				// Close the cycle: walk predecessors back to start.
				cyc := []int{v}
				for u := prev[v]; u != -1; u = prev[u] {
					cyc = append(cyc, u)
				}
				// Reverse into start-first order.
				for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
					cyc[i], cyc[j] = cyc[j], cyc[i]
				}
				return cyc
			}
			if _, seen := prev[w]; !seen {
				prev[w] = v
				queue = append(queue, w)
			}
		}
	}
	return nil
}

// witness materializes the minimal history fragment for the given txns,
// keeping only operations touching addrs (all ops when addrs is empty).
func (c *refChecker) witness(ids []int, addrs []memory.Addr) []WitnessTxn {
	keep := map[memory.Addr]bool{}
	for _, a := range addrs {
		keep[a] = true
	}
	seen := map[int]bool{}
	var out []WitnessTxn
	for _, id := range ids {
		if id < 0 || id >= len(c.txns) || seen[id] {
			continue
		}
		seen[id] = true
		t := c.txns[id]
		w := WitnessTxn{
			ID: t.id, Core: t.core, NT: t.nt,
			BeginSeq: t.beginSeq, CommitSeq: t.commitSeq, CommitAt: t.commitAt,
		}
		for i := range t.ops {
			if len(keep) == 0 || keep[t.ops[i].Addr] {
				w.Ops = append(w.Ops, t.ops[i])
			}
		}
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// violate records a violation, materializing its witness only under the cap.
func (c *refChecker) violate(v Violation) {
	c.rep.TotalViolations++
	if len(c.rep.Violations) < c.maxViol {
		c.rep.Violations = append(c.rep.Violations, v)
	}
}
