// Package replay folds a flight-record stream forward to materialize the
// machine's state at an arbitrary cycle: per-core transaction status and
// attempt number, per-line last-writer and reader sets, a signature
// occupancy estimate, and the governor's ladder level. It is the
// time-travel half of the query layer (internal/flightql): where the
// telemetry registry answers "how many, in total, by the end", replay
// answers "what did the machine look like at cycle N".
//
// The fold is purely offline and deterministic: the same records produce a
// byte-identical State. It reads only persisted data (a flight Snapshot or
// a serialized record stream) and touches nothing on the record hot path.
//
// A subset of the telemetry counters is derivable 1:1 from the flight
// stream — each increment site also writes exactly one flight record of a
// known kind on the same core (verified per site; see MirroredCounters).
// For those, replaying to the final cycle must reproduce the live
// registry's end-of-run values exactly; VerifyTelemetry pins that identity
// and the harness acceptance test enforces it per seed. Counters outside
// the set (e.g. cm-abort-enemy, whose flight records also cover commit-loop
// kills that the CM counter does not) are deliberately not mirrored.
package replay

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"flextm/internal/cst"
	"flextm/internal/flight"
	"flextm/internal/sim"
	"flextm/internal/telemetry"
)

// Status classifies a core's transaction engine at the replay cutoff.
type Status uint8

const (
	// Idle: no attempt open (never begun, or cleanly committed).
	Idle Status = iota
	// Running: an attempt is open (TxnBegin seen, no terminator yet).
	Running
	// Aborted: the last attempt aborted and the retry has not begun
	// (the post-abort back-off window).
	Aborted
	// Serialized: the core entered the serialized-irrevocable fallback and
	// has not committed out of it yet.
	Serialized
)

// String returns the status's stable name.
func (s Status) String() string {
	switch s {
	case Running:
		return "running"
	case Aborted:
		return "aborted"
	case Serialized:
		return "serialized"
	}
	return "idle"
}

// MarshalText makes Status render as its name in JSON.
func (s Status) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// CoreState is one core's reconstructed state.
type CoreState struct {
	Core int `json:"core"`
	// Status at the cutoff cycle.
	Status Status `json:"status"`
	// Attempt is the ordinal of the current (or most recent) attempt:
	// the number of TxnBegin records folded so far.
	Attempt int `json:"attempt"`
	// ConsecAborts counts aborts since the last commit — the watchdog's
	// trip variable.
	ConsecAborts int `json:"consecAborts"`
	// SigLines estimates signature occupancy: distinct lines this core has
	// been recorded touching (conflicts, stalls, spills, alerts) inside the
	// open attempt. A lower bound — unconflicted accesses leave no record.
	SigLines int `json:"sigLines"`

	Commits     uint64 `json:"commits"`
	Aborts      uint64 `json:"aborts"`
	Escalations uint64 `json:"escalations"`
	Trips       uint64 `json:"trips"`
}

// LineState is one memory line's reconstructed conflict history.
type LineState struct {
	Line uint64 `json:"line"`
	// LastWriter is the core on the write side of the most recent conflict
	// naming the line (-1 when the line only ever appeared on read sides).
	LastWriter int `json:"lastWriter"`
	// Writers and Readers are the distinct cores ever seen on each side of
	// a conflict over the line, sorted ascending.
	Writers []int `json:"writers,omitempty"`
	Readers []int `json:"readers,omitempty"`
	// Conflicts counts CSTSet records naming the line.
	Conflicts uint64 `json:"conflicts"`
}

// State is the reconstructed machine state at a cycle.
type State struct {
	// Cycle is the requested cutoff; records with At > Cycle are not folded.
	Cycle sim.Time `json:"cycle"`
	// Seq is the highest record sequence number folded, Records the count.
	Seq     uint64 `json:"seq"`
	Records int    `json:"records"`

	Cores []CoreState `json:"cores"`
	// Lines holds every line named by a folded conflict record, sorted by
	// address.
	Lines []LineState `json:"lines,omitempty"`
	// GovLevel is the governor's mitigation-ladder level (the Aux of the
	// last GovStep folded; 0 when the run was ungoverned).
	GovLevel int `json:"govLevel"`

	counters [][telemetry.NumCounters]uint64
}

// MirroredCounters lists the telemetry counters whose end-of-run values are
// derivable 1:1 from the flight stream: every increment site in the
// simulator also records exactly one flight record of a fixed kind, so a
// full-stream replay must land on the live registry's numbers exactly.
var MirroredCounters = []telemetry.Counter{
	telemetry.CtrTxnCommits,      // TxnCommit
	telemetry.CtrTxnAborts,       // TxnAbort
	telemetry.CtrEscalation,      // Escalate
	telemetry.CtrWatchdogTrip,    // WatchdogTrip
	telemetry.CtrCMAbortSelf,     // AbortSelf
	telemetry.CtrCMWait,          // CMStall (count)
	telemetry.CtrCMWaitCycles,    // CMStall (sum of Dur)
	telemetry.CtrCMBackoffCycles, // Backoff (sum of Dur)
	telemetry.CtrCSTSet,          // CSTSet (+1 requestor, +1 responder)
	telemetry.CtrAlert,           // AOUAlert
	telemetry.CtrOTSpill,         // OTSpill
	telemetry.CtrCommitCSTFail,   // CommitRefused
	telemetry.CtrGovStep,         // GovStep
}

// Counter returns a mirrored counter's replayed value for one core. Zero
// for cores or counters the fold never touched.
func (s *State) Counter(core int, c telemetry.Counter) uint64 {
	if s == nil || core < 0 || core >= len(s.counters) {
		return 0
	}
	return s.counters[core][c]
}

// CounterTotal sums a mirrored counter across cores.
func (s *State) CounterTotal(c telemetry.Counter) uint64 {
	if s == nil {
		return 0
	}
	var t uint64
	for i := range s.counters {
		t += s.counters[i][c]
	}
	return t
}

// At folds records with At <= cycle, in Seq order, into a State. The input
// must be Seq-sorted (flight.Recorder.Snapshot's order); out-of-order input
// is sorted on a copy first. cores sizes the per-core tables and is grown
// to cover any core a record names.
func At(recs []flight.Rec, cores int, cycle sim.Time) *State {
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq < recs[i-1].Seq {
			sorted := append([]flight.Rec(nil), recs...)
			sort.Slice(sorted, func(a, b int) bool { return sorted[a].Seq < sorted[b].Seq })
			recs = sorted
			break
		}
	}
	for _, r := range recs {
		if int(r.Core) >= cores {
			cores = int(r.Core) + 1
		}
		if int(r.Peer) >= cores {
			cores = int(r.Peer) + 1
		}
	}
	if cores < 1 {
		cores = 1
	}

	st := &State{
		Cycle:    cycle,
		Cores:    make([]CoreState, cores),
		counters: make([][telemetry.NumCounters]uint64, cores),
	}
	for i := range st.Cores {
		st.Cores[i].Core = i
	}
	f := newFold(st)
	for i := range recs {
		r := &recs[i]
		if r.At > cycle {
			continue
		}
		c := int(r.Core)
		if c < 0 || c >= cores {
			continue
		}
		st.Records++
		if r.Seq > st.Seq {
			st.Seq = r.Seq
		}
		cs := &st.Cores[c]
		ctr := &st.counters[c]
		switch r.Kind {
		case flight.TxnBegin:
			cs.Attempt++
			if cs.Status != Serialized {
				cs.Status = Running
			}
			f.closeAttempt(c)
		case flight.TxnCommit:
			ctr[telemetry.CtrTxnCommits]++
			cs.Commits++
			cs.ConsecAborts = 0
			cs.Status = Idle
			f.closeAttempt(c)
		case flight.TxnAbort:
			ctr[telemetry.CtrTxnAborts]++
			cs.Aborts++
			cs.ConsecAborts++
			if cs.Status != Serialized {
				cs.Status = Aborted
			}
			f.closeAttempt(c)
		case flight.Escalate:
			ctr[telemetry.CtrEscalation]++
			cs.Escalations++
			cs.Status = Serialized
		case flight.WatchdogTrip:
			ctr[telemetry.CtrWatchdogTrip]++
			cs.Trips++
		case flight.AbortSelf:
			ctr[telemetry.CtrCMAbortSelf]++
		case flight.CMStall:
			ctr[telemetry.CtrCMWait]++
			ctr[telemetry.CtrCMWaitCycles] += uint64(r.Dur)
			f.touch(c, uint64(r.Line))
		case flight.Backoff:
			ctr[telemetry.CtrCMBackoffCycles] += uint64(r.Dur)
		case flight.CSTSet:
			// The protocol increments the counter on both the requestor and
			// the responder; the single record carries both in Core/Peer.
			ctr[telemetry.CtrCSTSet]++
			p := int(r.Peer)
			if p >= 0 && p < cores {
				st.counters[p][telemetry.CtrCSTSet]++
			}
			if addr := uint64(r.Line); addr != 0 {
				la := f.line(addr)
				la.conflicts++
				// Aux's low bits carry the cst.Kind recorded in the
				// requestor's table: RW = requestor read / responder wrote,
				// WR = requestor wrote / responder read, WW = both wrote.
				switch cst.Kind(r.Aux & flight.AuxMask) {
				case cst.RW:
					f.add(la.readers, c)
					if p >= 0 {
						f.add(la.writers, p)
						la.lastWriter = p
					}
				case cst.WR:
					f.add(la.writers, c)
					la.lastWriter = c
					if p >= 0 {
						f.add(la.readers, p)
					}
				case cst.WW:
					f.add(la.writers, c)
					la.lastWriter = c
					if p >= 0 {
						f.add(la.writers, p)
					}
				}
				f.touch(c, addr)
				if p >= 0 && p < cores {
					f.touch(p, addr)
				}
			}
		case flight.AOUAlert:
			ctr[telemetry.CtrAlert]++
		case flight.OTSpill:
			ctr[telemetry.CtrOTSpill]++
			f.touch(c, uint64(r.Line))
		case flight.CommitRefused:
			ctr[telemetry.CtrCommitCSTFail]++
		case flight.GovStep:
			ctr[telemetry.CtrGovStep]++
			st.GovLevel = int(r.Aux)
		}
	}
	f.finish()
	return st
}

// fold is At's scratch state. Its sets are reused rather than remade: a
// core's open-attempt set is emptied by bumping the core's generation, and
// every line's writer and reader sets are bitsets in one shared slab.
type fold struct {
	st *State
	// lines accumulates each conflict line, in first-seen order; lineIx
	// maps an address to its index there.
	lines  []lineAcc
	lineIx map[uint64]int
	// slab holds two core bitsets per line, words long each.
	slab  []uint64
	words int
	// seen holds, per core and line, the generation of the core's attempt
	// that last touched the line; gen is each core's current generation.
	// A line counts toward the core's SigLines once per generation.
	seen map[coreLine]uint32
	gen  []uint32
}

type lineAcc struct {
	addr       uint64
	lastWriter int
	// writers and readers are the offsets of the line's core bitsets in
	// the fold's slab.
	writers, readers int
	conflicts        uint64
}

type coreLine struct {
	core int
	line uint64
}

func newFold(st *State) *fold {
	f := &fold{
		st:     st,
		lineIx: map[uint64]int{},
		words:  (len(st.Cores) + 63) / 64,
		seen:   map[coreLine]uint32{},
		gen:    make([]uint32, len(st.Cores)),
	}
	for c := range f.gen {
		f.gen[c] = 1
	}
	return f
}

// line returns addr's accumulator, adding an empty one on first sight.
func (f *fold) line(addr uint64) *lineAcc {
	i, ok := f.lineIx[addr]
	if !ok {
		i = len(f.lines)
		f.lineIx[addr] = i
		off := len(f.slab)
		f.slab = append(f.slab, make([]uint64, 2*f.words)...)
		f.lines = append(f.lines, lineAcc{addr: addr, lastWriter: -1, writers: off, readers: off + f.words})
	}
	return &f.lines[i]
}

// add puts core c in the bitset at offset set.
func (f *fold) add(set, c int) {
	f.slab[set+c/64] |= 1 << (c % 64)
}

// cores lists the bitset at offset set in ascending order, nil when empty.
func (f *fold) cores(set int) []int {
	n := 0
	for _, w := range f.slab[set : set+f.words] {
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for i, w := range f.slab[set : set+f.words] {
		for ; w != 0; w &= w - 1 {
			out = append(out, i*64+bits.TrailingZeros64(w))
		}
	}
	return out
}

// touch counts addr toward core c's open attempt, once per attempt.
func (f *fold) touch(c int, addr uint64) {
	if addr == 0 {
		return
	}
	k := coreLine{c, addr}
	if f.seen[k] != f.gen[c] {
		f.seen[k] = f.gen[c]
		f.st.Cores[c].SigLines++
	}
}

// closeAttempt empties core c's open-attempt set.
func (f *fold) closeAttempt(c int) {
	f.gen[c]++
	f.st.Cores[c].SigLines = 0
}

// finish writes the lines, sorted by address, into the state.
func (f *fold) finish() {
	if len(f.lines) == 0 {
		return
	}
	slices.SortFunc(f.lines, func(a, b lineAcc) int { return cmp.Compare(a.addr, b.addr) })
	f.st.Lines = make([]LineState, len(f.lines))
	for i := range f.lines {
		la := &f.lines[i]
		f.st.Lines[i] = LineState{
			Line:       la.addr,
			LastWriter: la.lastWriter,
			Writers:    f.cores(la.writers),
			Readers:    f.cores(la.readers),
			Conflicts:  la.conflicts,
		}
	}
}

// Final folds the whole stream: the state at the last record's cycle.
func Final(recs []flight.Rec, cores int) *State {
	var end sim.Time
	for _, r := range recs {
		if r.At > end {
			end = r.At
		}
	}
	return At(recs, cores, end)
}

// VerifyTelemetry checks the replay-identity invariant: every mirrored
// counter's replayed value equals the live registry's, per core, in the
// given end-of-run snapshot. A non-nil error names the first divergence.
// The identity holds only when the flight rings never wrapped (lost records
// are gone; the registry still counted them) — callers size the rings for
// the run, or check flight.Recorder.Overwritten() first.
func (s *State) VerifyTelemetry(snap telemetry.Snapshot) error {
	if s == nil {
		return fmt.Errorf("replay: nil state")
	}
	for c := range snap.Cores {
		for _, ctr := range MirroredCounters {
			want := snap.Cores[c].Counters[ctr]
			got := s.Counter(c, ctr)
			if got != want {
				return fmt.Errorf("replay: core %d counter %q: replayed %d, live telemetry %d",
					c, ctr.String(), got, want)
			}
		}
	}
	if extra := len(s.counters) - len(snap.Cores); extra > 0 {
		for c := len(snap.Cores); c < len(s.counters); c++ {
			for _, ctr := range MirroredCounters {
				if v := s.counters[c][ctr]; v != 0 {
					return fmt.Errorf("replay: core %d outside live snapshot has counter %q = %d",
						c, ctr.String(), v)
				}
			}
		}
	}
	return nil
}
