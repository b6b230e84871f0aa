package oracle

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"

	"flextm/internal/memory"
	"flextm/internal/scc"
	"flextm/internal/sim"
)

// DefaultMaxViolations bounds how many violations a report materializes
// with full witnesses. Counting continues past the bound.
const DefaultMaxViolations = 8

// Violation kinds.
const (
	// VStaleRead: a committed transaction observed a version that had
	// already been overwritten by a committed writer before the read
	// executed — the lost-update anomaly the W-R CST machinery exists to
	// prevent.
	VStaleRead = "stale-read"
	// VFutureRead: a committed transaction observed a value before the
	// transaction that wrote it committed — a dirty read of speculative
	// data that PDI's TMI isolation should have made impossible.
	VFutureRead = "future-read"
	// VPhantomValue: a committed read observed a value no committed (or
	// initial) version of the address ever held — torn data or a dirty
	// read of a write that later aborted.
	VPhantomValue = "phantom-value"
	// VInternalRead: a transaction's read of its own pending write
	// returned the wrong value — broken speculative versioning.
	VInternalRead = "internal-read"
	// VCycle: the direct serialization graph contains a cycle — no serial
	// order of the committed transactions explains the observed values.
	VCycle = "dsr-cycle"
)

// Edge is one dependency in the direct serialization graph.
type Edge struct {
	From int `json:"from"` // txn IDs (commit order)
	To   int `json:"to"`
	// Kind is "WR" (To read From's write), "WW" (To overwrote From), or
	// "RW" (From read the version To overwrote: anti-dependency).
	Kind string      `json:"kind"`
	Addr memory.Addr `json:"addr"`
	// CST names the conflict-summary-table bits that should have made the
	// protocol observe (and arbitrate) this dependency.
	CST string `json:"cst"`
}

// WitnessTxn is one transaction of a violation witness, restricted to the
// operations on the addresses involved — a minimal history fragment.
type WitnessTxn struct {
	ID        int      `json:"id"`
	Core      int      `json:"core"`
	BeginSeq  uint64   `json:"beginSeq"`
	CommitSeq uint64   `json:"commitSeq"`
	CommitAt  sim.Time `json:"commitAt"`
	NT        bool     `json:"nt,omitempty"`
	Ops       []Op     `json:"ops"`
}

// Violation is one detected serializability failure with its witness.
type Violation struct {
	Kind    string       `json:"kind"`
	Summary string       `json:"summary"`
	Edges   []Edge       `json:"edges,omitempty"`
	Witness []WitnessTxn `json:"witness,omitempty"`
}

// Report is the checker's verdict over one history.
type Report struct {
	// Txns is the number of committed transactions analyzed (singleton
	// non-transactional accesses included).
	Txns int `json:"txns"`
	// Reads and Writes count the committed operations checked.
	Reads  int `json:"reads"`
	Writes int `json:"writes"`
	// Aborted counts discarded attempts seen in the log.
	Aborted int `json:"aborted"`
	// Truncated counts attempts still open at the end of the log (a live
	// run cut short, or a damaged log) — tolerated, not violations.
	Truncated int `json:"truncated,omitempty"`
	// Violations carries up to DefaultMaxViolations witnesses;
	// TotalViolations keeps counting past the cap.
	Violations      []Violation `json:"violations,omitempty"`
	TotalViolations int         `json:"totalViolations"`
	// Malformed notes structural problems with the log itself (ops outside
	// a transaction, commits without begins, non-monotone stamps). The
	// checker reports them and carries on; it never panics.
	Malformed []string `json:"malformed,omitempty"`
}

// Ok reports whether the history is serializable as far as the checker can
// tell (malformed-log notes do not fail a report on their own).
func (r *Report) Ok() bool { return r.TotalViolations == 0 }

// Print writes a human-readable summary.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "oracle: %d committed txns (%d reads, %d writes), %d aborted attempts",
		r.Txns, r.Reads, r.Writes, r.Aborted)
	if r.Truncated > 0 {
		fmt.Fprintf(w, ", %d truncated", r.Truncated)
	}
	fmt.Fprintln(w)
	for _, m := range r.Malformed {
		fmt.Fprintf(w, "  malformed: %s\n", m)
	}
	if r.TotalViolations == 0 {
		fmt.Fprintln(w, "  serializable: no violations")
		return
	}
	fmt.Fprintf(w, "  VIOLATIONS: %d (showing %d)\n", r.TotalViolations, len(r.Violations))
	for i := range r.Violations {
		v := &r.Violations[i]
		fmt.Fprintf(w, "  [%s] %s\n", v.Kind, v.Summary)
		for _, e := range v.Edges {
			fmt.Fprintf(w, "    edge T%d -%s-> T%d (addr %d): %s\n", e.From, e.Kind, e.To, e.Addr, e.CST)
		}
		for _, t := range v.Witness {
			tag := ""
			if t.NT {
				tag = " nt"
			}
			fmt.Fprintf(w, "    T%d core=%d commitSeq=%d%s:\n", t.ID, t.Core, t.CommitSeq, tag)
			for _, op := range t.Ops {
				fmt.Fprintf(w, "      seq=%-6d %-8s addr=%d val=%d\n", op.Seq, op.Kind, op.Addr, op.Val)
			}
		}
	}
}

// The checker runs in O(ops + edges) apart from sorting the written
// addresses once: every address gets a dense id when a committed operation
// first names it, and chains, initial values and inference state are
// slices indexed by that id. Committed transactions refer to their reads and
// writes by log position instead of copying them.

// opLog is a read-only view of an operation log stored as chunks of
// 1<<shift ops, every chunk full except the last. A History's flat slice is
// a single chunk with a shift no position reaches.
type opLog struct {
	chunks [][]Op
	shift  uint
}

// flatShift makes a single slice one chunk: p>>flatShift is 0 for every int
// position p.
const flatShift = 62

func (l opLog) at(p int32) *Op {
	i := int(p)
	return &l.chunks[i>>l.shift][i&(1<<l.shift-1)]
}

// txn is one committed transaction reconstructed from the log; its id is
// its index in checker.txns (commit order).
type txn struct {
	core      int
	nt        bool
	beginSeq  uint64
	commitSeq uint64
	commitAt  sim.Time
	// lo and hi bound the transaction's reads and writes, in log order, in
	// checker.pos (log positions) and checker.aid (address ids).
	lo, hi int32
}

// version is one committed value of an address.
type version struct {
	writer    int // txn id; -1 for the initial value
	val       uint64
	commitSeq uint64 // 0 for the initial value
}

// edgeKind labels a DSR edge.
type edgeKind uint8

const (
	kindRW edgeKind = iota
	kindWR
	kindWW
)

var edgeKindNames = [...]string{kindRW: "RW", kindWR: "WR", kindWW: "WW"}

// edge is a DSR edge before its CST hint is rendered (see expand).
type edge struct {
	from, to int32
	kind     edgeKind
	addr     memory.Addr
}

// attempt is one core's transaction attempt in flight during collect. Its
// position buffer is reused by the core's next attempt, so an aborted
// attempt's storage goes back into service.
type attempt struct {
	open     bool
	beginSeq uint64
	pos      []int32
}

// denseCores bounds the core numbers collect indexes directly; a damaged
// log naming any other core falls back to a map.
const denseCores = 256

// checker carries the state of one Check invocation.
type checker struct {
	maxViol int
	rep     *Report
	log     opLog
	initial map[memory.Addr]uint64 // read only

	txns []txn
	pos  []int32 // log positions of committed reads and writes, per txn
	aid  []int32 // address id of each pos entry

	ids     map[memory.Addr]int32
	addrs   []memory.Addr // id → address
	known   []bool        // initial value registered or inferred
	initVal []uint64      // registered initial value

	// Address a's version chain is versions[chainAt[a]:chainAt[a+1]];
	// entry 0 is the initial (or placeholder) value.
	chainAt  []int32
	versions []version

	// edges holds every DSR edge once, in insertion order.
	edges []edge
	// depReader/depIdx remember, per address, the last reader that
	// depended on a version and which one; depMore holds any further
	// (reader, address, version) a reader depended on.
	depReader []int32
	depIdx    []int32
	depMore   map[[3]int32]struct{}

	// The out-neighbours of txn v are adjTo[adjAt[v]:adjAt[v+1]] in order
	// of first edge insertion; adjEdge names that first edge.
	adjAt   []int32
	adjTo   []int32
	adjEdge []int32
}

// Check analyzes a history and returns the verdict. It never panics on
// malformed input: structural problems are reported in Report.Malformed and
// the analysis continues with what can be salvaged.
func Check(h History) *Report {
	return checkLog(opLog{chunks: [][]Op{h.Ops}, shift: flatShift}, h.Initial, DefaultMaxViolations)
}

// checkLog materializes up to maxViolations witnesses; tests vary the cap.
func checkLog(log opLog, initial map[memory.Addr]uint64, maxViolations int) *Report {
	c := &checker{
		maxViol: maxViolations,
		rep:     &Report{},
		log:     log,
		initial: initial,
		ids:     make(map[memory.Addr]int32),
	}
	c.collect()
	c.buildChains()
	c.resolveReads()
	c.buildAdjacency()
	c.findCycles()
	return c.rep
}

// intern returns a's dense id, registering it on first sight.
func (c *checker) intern(a memory.Addr) int32 {
	if id, ok := c.ids[a]; ok {
		return id
	}
	id := int32(len(c.addrs))
	c.ids[a] = id
	c.addrs = append(c.addrs, a)
	v, ok := c.initial[a]
	c.known = append(c.known, ok)
	c.initVal = append(c.initVal, v)
	return id
}

// chain returns address id a's version chain.
func (c *checker) chain(a int32) []version {
	return c.versions[c.chainAt[a]:c.chainAt[a+1]]
}

// collect reconstructs committed transactions from the raw op stream. Log
// order is authoritative; the recorded Seq stamps are cross-checked and the
// ops re-stamped by position when they disagree, so a damaged log cannot
// break the ordering logic downstream. Log order is then commit order.
func (c *checker) collect() {
	malformed := func(format string, args ...interface{}) {
		if len(c.rep.Malformed) < 32 {
			c.rep.Malformed = append(c.rep.Malformed, fmt.Sprintf(format, args...))
		}
	}
	var lastSeq uint64
	restamped := false
	n := 0
	for _, ch := range c.log.chunks {
		for i := range ch {
			if ch[i].Seq <= lastSeq {
				restamped = true
			}
			lastSeq = ch[i].Seq
		}
		n += len(ch)
	}
	if restamped {
		malformed("non-monotone sequence stamps: re-stamped by log position")
		// Re-stamp a copy: Check is a pure function of the history, and
		// callers (schedule replay, the fuzzer's determinism cross-check)
		// rely on the input surviving untouched.
		fixed := make([]Op, 0, n)
		for _, ch := range c.log.chunks {
			fixed = append(fixed, ch...)
		}
		for i := range fixed {
			fixed[i].Seq = uint64(i) + 1
		}
		c.log = opLog{chunks: [][]Op{fixed}, shift: flatShift}
	}

	var dense []attempt
	var sparse map[int]*attempt
	slot := func(core int) *attempt {
		if core >= 0 && core < denseCores {
			if core >= len(dense) {
				dense = append(dense, make([]attempt, core+1-len(dense))...)
			}
			return &dense[core]
		}
		if sparse == nil {
			sparse = make(map[int]*attempt)
		}
		a := sparse[core]
		if a == nil {
			a = &attempt{}
			sparse[core] = a
		}
		return a
	}
	p := int32(-1)
	for _, ch := range c.log.chunks {
		for i := range ch {
			op := &ch[i]
			p++
			switch op.Kind {
			case OpBegin:
				a := slot(op.Core)
				if a.open {
					malformed("core %d: begin at seq %d with an attempt already open (previous discarded)", op.Core, op.Seq)
					c.rep.Aborted++
				}
				a.open, a.beginSeq, a.pos = true, op.Seq, a.pos[:0]
			case OpRead, OpWrite:
				a := slot(op.Core)
				if !a.open {
					malformed("core %d: %s at seq %d outside any transaction (skipped)", op.Core, op.Kind, op.Seq)
					continue
				}
				a.pos = append(a.pos, p)
			case OpCommit:
				a := slot(op.Core)
				if !a.open {
					malformed("core %d: commit at seq %d without a begin (skipped)", op.Core, op.Seq)
					continue
				}
				a.open = false
				c.commit(txn{core: op.Core, beginSeq: a.beginSeq, commitSeq: op.Seq, commitAt: op.At}, a.pos)
			case OpAbort:
				a := slot(op.Core)
				if !a.open {
					malformed("core %d: abort at seq %d without a begin (skipped)", op.Core, op.Seq)
					continue
				}
				a.open = false
				c.rep.Aborted++
			case OpNTRead, OpNTWrite:
				// A singleton transaction: strong isolation serializes the
				// access at its own instant, independent of any open attempt.
				c.commit(txn{core: op.Core, nt: true, beginSeq: op.Seq, commitSeq: op.Seq, commitAt: op.At}, []int32{p})
			default:
				malformed("unknown op kind %d at seq %d (skipped)", op.Kind, op.Seq)
			}
		}
	}
	for i := range dense {
		if dense[i].open {
			c.rep.Truncated++
		}
	}
	for _, a := range sparse {
		if a.open {
			c.rep.Truncated++
		}
	}
	c.rep.Txns = len(c.txns)
}

// commit appends t with the reads and writes at log positions pos.
func (c *checker) commit(t txn, pos []int32) {
	t.lo = int32(len(c.pos))
	for _, p := range pos {
		op := c.log.at(p)
		c.pos = append(c.pos, p)
		c.aid = append(c.aid, c.intern(op.Addr))
		if isRead(op.Kind) {
			c.rep.Reads++
		} else {
			c.rep.Writes++
		}
	}
	t.hi = int32(len(c.pos))
	c.txns = append(c.txns, t)
}

func isRead(k OpKind) bool { return k == OpRead || k == OpNTRead }

// buildChains derives the per-address version order. Version order is
// commit order: CAS-Commit publishes a transaction's whole write set
// atomically (flash commit), and the engine's one-thread-at-a-time
// execution makes commit instants totally ordered, so the order is
// physically exact, not an approximation.
func (c *checker) buildChains() {
	n := len(c.addrs)
	// Size each chain: its initial entry plus one version per committed
	// writer (a transaction publishes only its last write to an address).
	c.chainAt = make([]int32, n+1)
	last := make([]int32, n) // txn id+1 of the writer last counted
	for t := range c.txns {
		for k := c.txns[t].lo; k < c.txns[t].hi; k++ {
			if a := c.aid[k]; !isRead(c.log.at(c.pos[k]).Kind) && last[a] != int32(t)+1 {
				last[a] = int32(t) + 1
				c.chainAt[a+1]++
			}
		}
	}
	for a := 0; a < n; a++ {
		c.chainAt[a+1] += c.chainAt[a] + 1
	}
	// An address without a registered initial value gets a placeholder
	// (initVal is 0) the inference step may fill in from an early read.
	c.versions = make([]version, c.chainAt[n])
	next := last // reused: the next free entry of each chain
	for a := 0; a < n; a++ {
		c.versions[c.chainAt[a]] = version{writer: -1, val: c.initVal[a]}
		next[a] = c.chainAt[a] + 1
	}
	for t := range c.txns {
		tx := &c.txns[t]
		for k := tx.lo; k < tx.hi; k++ {
			op := c.log.at(c.pos[k])
			if isRead(op.Kind) {
				continue
			}
			a := c.aid[k]
			if v := &c.versions[next[a]-1]; v.writer == t {
				v.val = op.Val
				continue
			}
			c.versions[next[a]] = version{writer: t, val: op.Val, commitSeq: tx.commitSeq}
			next[a]++
		}
	}
	// Infer unknown initial values from the earliest read of each address
	// that precedes its first committed write: nothing else can have
	// produced that value in a well-formed history. An address only ever
	// read takes whatever its first read saw (conflicting later reads
	// become phantom violations via the normal path).
	for t := range c.txns {
		for k := c.txns[t].lo; k < c.txns[t].hi; k++ {
			a := c.aid[k]
			op := c.log.at(c.pos[k])
			if c.known[a] || !isRead(op.Kind) {
				continue
			}
			chain := c.chain(a)
			firstCommit := uint64(0)
			if len(chain) > 1 {
				firstCommit = chain[1].commitSeq
			}
			if firstCommit == 0 || op.Seq < firstCommit {
				chain[0].val = op.Val
				c.known[a] = true
			}
		}
	}
	// W→W edges along each chain; adjacent committers suffice for cycle
	// detection (the rest are implied by transitivity). A transaction
	// holds at most one version per chain, so these edges never repeat.
	// Addresses are visited in ascending order: edge insertion order
	// decides adjacency order, and with it which witness cycle findCycles
	// reports.
	var written []int32
	for a := 0; a < n; a++ {
		if c.chainAt[a+1]-c.chainAt[a] > 2 {
			written = append(written, int32(a))
		}
	}
	slices.SortFunc(written, func(x, y int32) int { return cmp.Compare(c.addrs[x], c.addrs[y]) })
	for _, a := range written {
		chain := c.chain(a)
		for i := 2; i < len(chain); i++ {
			c.edges = append(c.edges, edge{from: int32(chain[i-1].writer), to: int32(chain[i].writer), kind: kindWW, addr: c.addrs[a]})
		}
	}
}

// currentAt returns the index in chain of the version visible at sequence
// stamp s (the latest version whose commit precedes s). Commit stamps rise
// along the chain.
func currentAt(chain []version, s uint64) int {
	return sort.Search(len(chain)-1, func(i int) bool { return chain[i+1].commitSeq >= s })
}

// resolveReads maps every committed read to the version it observed,
// accumulating W→R and R→W edges and reporting single-read anomalies.
func (c *checker) resolveReads() {
	n := len(c.addrs)
	c.depReader = make([]int32, n)
	c.depIdx = make([]int32, n)
	// ownBy[a] is the txn id+1 whose latest pending write to a is ownVal[a].
	ownBy := make([]int32, n)
	ownVal := make([]uint64, n)
	for t := range c.txns {
		tx := &c.txns[t]
		for k := tx.lo; k < tx.hi; k++ {
			op := c.log.at(c.pos[k])
			a := c.aid[k]
			if !isRead(op.Kind) {
				ownBy[a], ownVal[a] = int32(t)+1, op.Val
				continue
			}
			if ownBy[a] == int32(t)+1 {
				if own := ownVal[a]; own != op.Val {
					c.violate(func() Violation {
						return Violation{
							Kind: VInternalRead,
							Summary: fmt.Sprintf("T%d (core %d) read %d at addr %d but its own pending write was %d: broken speculative versioning",
								t, tx.core, op.Val, op.Addr, own),
							Witness: c.witness([]int{t}, []memory.Addr{op.Addr}),
						}
					})
				}
				continue
			}
			chain := c.chain(a)
			expIdx := currentAt(chain, op.Seq)
			if chain[expIdx].val == op.Val {
				c.dependOn(t, a, expIdx)
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
				c.dependOn(t, a, stale)
				c.violate(func() Violation {
					return Violation{
						Kind: VStaleRead,
						Summary: fmt.Sprintf("T%d (core %d) read addr %d = %d (version of T%d) after T%d had already committed %d: lost update",
							t, tx.core, op.Addr, op.Val, chain[stale].writer, chain[expIdx].writer, chain[expIdx].val),
						Edges:   c.edgesTouching(t, op.Addr),
						Witness: c.witness(append(writersOf(chain, stale, expIdx), t), []memory.Addr{op.Addr}),
					}
				})
			case future >= 0:
				c.dependOn(t, a, future)
				c.violate(func() Violation {
					rel := "before its writer committed"
					if chain[future].commitSeq > tx.commitSeq {
						rel = "from a writer that committed after the reader"
					}
					return Violation{
						Kind: VFutureRead,
						Summary: fmt.Sprintf("T%d (core %d) read addr %d = %d %s (T%d): dirty read of speculative data",
							t, tx.core, op.Addr, op.Val, rel, chain[future].writer),
						Edges:   c.edgesTouching(t, op.Addr),
						Witness: c.witness([]int{chain[future].writer, t}, []memory.Addr{op.Addr}),
					}
				})
			default:
				c.violate(func() Violation {
					return Violation{
						Kind: VPhantomValue,
						Summary: fmt.Sprintf("T%d (core %d) read addr %d = %d, a value no committed or initial version ever held (expected %d from T%d)",
							t, tx.core, op.Addr, op.Val, chain[expIdx].val, chain[expIdx].writer),
						Witness: c.witness([]int{t}, []memory.Addr{op.Addr}),
					}
				})
			}
		}
	}
}

// dependOn records the W→R edge from the version's writer and the R→W
// anti-dependency toward the next version's writer. Both edges name the
// reader t, so no other reader's edges can repeat them; and the pair is
// fixed by (address, version), distinct versions giving distinct writers.
// Deduplicating (t, a, idx) per reader therefore keeps every edge once.
func (c *checker) dependOn(t int, a int32, idx int) {
	switch r := int32(t) + 1; {
	case c.depReader[a] != r:
		c.depReader[a], c.depIdx[a] = r, int32(idx)
	case c.depIdx[a] == int32(idx):
		return
	default:
		// The reader saw a second version of the address: rare, and only
		// in histories with anomalies.
		key := [3]int32{int32(t), a, int32(idx)}
		if _, dup := c.depMore[key]; dup {
			return
		}
		if c.depMore == nil {
			c.depMore = make(map[[3]int32]struct{})
		}
		c.depMore[key] = struct{}{}
	}
	chain := c.chain(a)
	if w := chain[idx].writer; w >= 0 && w != t {
		c.edges = append(c.edges, edge{from: int32(w), to: int32(t), kind: kindWR, addr: c.addrs[a]})
	}
	if idx+1 < len(chain) {
		if w := chain[idx+1].writer; w >= 0 && w != t {
			c.edges = append(c.edges, edge{from: int32(t), to: int32(w), kind: kindRW, addr: c.addrs[a]})
		}
	}
}

// writersOf lists the distinct writer txns of chain[lo..hi].
func writersOf(chain []version, lo, hi int) []int {
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

// expand renders e for a report, with the CST bits that should have
// surfaced the dependency, in the paper's terms (Figure 1's CST exchange
// and Figure 3's commit rule).
func (c *checker) expand(e edge) Edge {
	cf, ct := c.txns[e.from].core, c.txns[e.to].core
	var hint string
	switch e.kind {
	case kindWR:
		hint = fmt.Sprintf("writer core %d's W-R should name reader core %d; the writer's commit must abort or scrub the reader", cf, ct)
	case kindRW:
		hint = fmt.Sprintf("reader core %d's R-W names writer core %d, whose W-R names the reader: the writer's CAS-Commit must abort the live reader (Figure 3, line 2)", cf, ct)
	case kindWW:
		hint = fmt.Sprintf("cores %d and %d hold each other's W-W bits; the first CAS-Commit must abort the other speculative writer", cf, ct)
	}
	return Edge{From: int(e.from), To: int(e.to), Kind: edgeKindNames[e.kind], Addr: e.addr, CST: hint}
}

// edgesTouching returns the recorded edges incident to txn id on addr.
func (c *checker) edgesTouching(id int, a memory.Addr) []Edge {
	var out []Edge
	for _, e := range c.edges {
		if e.addr == a && (int(e.from) == id || int(e.to) == id) {
			out = append(out, c.expand(e))
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

// buildAdjacency lays the edges out by source: each txn's distinct
// successors in order of their first edge, which is the order the cycle
// search walks them in.
func (c *checker) buildAdjacency() {
	n := len(c.txns)
	start := make([]int32, n+1)
	for _, e := range c.edges {
		start[e.from+1]++
	}
	for v := 0; v < n; v++ {
		start[v+1] += start[v]
	}
	bySrc := make([]int32, len(c.edges))
	fill := slices.Clone(start[:n])
	for i, e := range c.edges {
		bySrc[fill[e.from]] = int32(i)
		fill[e.from]++
	}
	seen := fill // reused: the source+1 that last listed each target
	clear(seen)
	c.adjAt = make([]int32, n+1)
	for v := 0; v < n; v++ {
		for _, i := range bySrc[start[v]:start[v+1]] {
			if w := c.edges[i].to; seen[w] != int32(v)+1 {
				seen[w] = int32(v) + 1
				c.adjTo = append(c.adjTo, w)
				c.adjEdge = append(c.adjEdge, i)
			}
		}
		c.adjAt[v+1] = int32(len(c.adjTo))
	}
}

func (c *checker) adj(v int) []int32 { return c.adjTo[c.adjAt[v]:c.adjAt[v+1]] }

// firstEdge returns the first edge inserted from → to, if any.
func (c *checker) firstEdge(from, to int) (edge, bool) {
	for k := c.adjAt[from]; k < c.adjAt[from+1]; k++ {
		if int(c.adjTo[k]) == to {
			return c.edges[c.adjEdge[k]], true
		}
	}
	return edge{}, false
}

// findCycles runs Tarjan's SCC over the DSR graph and reports one shortest
// witness cycle per non-trivial component. Edges never join a txn to
// itself, so a single-node component is never a cycle.
func (c *checker) findCycles() {
	scc.Components(c.adjAt, c.adjTo, func(comp []int32) {
		cyc := c.shortestCycle(comp)
		if len(cyc) == 0 {
			return
		}
		c.violate(func() Violation {
			edges := make([]Edge, 0, len(cyc))
			addrs := map[memory.Addr]bool{}
			for i := range cyc {
				e, ok := c.firstEdge(cyc[i], cyc[(i+1)%len(cyc)])
				if !ok {
					continue
				}
				edges = append(edges, c.expand(e))
				addrs[e.addr] = true
			}
			var as []memory.Addr
			for a := range addrs {
				as = append(as, a)
			}
			sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
			return Violation{
				Kind: VCycle,
				Summary: fmt.Sprintf("direct-serialization-graph cycle over %d transactions (component of %d): no serial order explains the observed values",
					len(cyc), len(comp)),
				Edges:   edges,
				Witness: c.witness(cyc, as),
			}
		})
	})
}

// shortestCycle finds a minimal cycle inside one SCC via BFS from its
// smallest node, restricted to component members.
func (c *checker) shortestCycle(comp []int32) []int {
	in := map[int]bool{}
	for _, v := range comp {
		in[int(v)] = true
	}
	start := int(comp[0])
	for _, v := range comp {
		if int(v) < start {
			start = int(v)
		}
	}
	prev := map[int]int{start: -1}
	queue := []int{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w32 := range c.adj(v) {
			w := int(w32)
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
func (c *checker) witness(ids []int, addrs []memory.Addr) []WitnessTxn {
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
		t := &c.txns[id]
		w := WitnessTxn{
			ID: id, Core: t.core, NT: t.nt,
			BeginSeq: t.beginSeq, CommitSeq: t.commitSeq, CommitAt: t.commitAt,
		}
		for k := t.lo; k < t.hi; k++ {
			if op := c.log.at(c.pos[k]); len(keep) == 0 || keep[op.Addr] {
				w.Ops = append(w.Ops, *op)
			}
		}
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// violate counts a violation and, under the cap, materializes it with its
// witness; past the cap build is never called.
func (c *checker) violate(build func() Violation) {
	c.rep.TotalViolations++
	if len(c.rep.Violations) < c.maxViol {
		c.rep.Violations = append(c.rep.Violations, build())
	}
}
