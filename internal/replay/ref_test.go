package replay

// This file keeps At as it stood before the fold reused its scratch sets,
// renamed At → refAt and otherwise verbatim. TestAtMatchesParent holds At
// to deeply equal states against it; do not "fix" or speed up this copy.

import (
	"sort"

	"flextm/internal/cst"
	"flextm/internal/flight"
	"flextm/internal/sim"
	"flextm/internal/telemetry"
)

// refAt folds records with At <= cycle, in Seq order, into a State. The input
// must be Seq-sorted (flight.Recorder.Snapshot's order); out-of-order input
// is sorted on a copy first. cores sizes the per-core tables and is grown
// to cover any core a record names.
func refAt(recs []flight.Rec, cores int, cycle sim.Time) *State {
	if !sort.SliceIsSorted(recs, func(a, b int) bool { return recs[a].Seq < recs[b].Seq }) {
		sorted := append([]flight.Rec(nil), recs...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a].Seq < sorted[b].Seq })
		recs = sorted
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
	type lineAcc struct {
		lastWriter int
		writers    map[int]bool
		readers    map[int]bool
		conflicts  uint64
	}
	lines := map[uint64]*lineAcc{}
	lineOf := func(addr uint64) *lineAcc {
		la := lines[addr]
		if la == nil {
			la = &lineAcc{lastWriter: -1, writers: map[int]bool{}, readers: map[int]bool{}}
			lines[addr] = la
		}
		return la
	}
	// Distinct lines touched inside each core's open attempt.
	open := make([]map[uint64]bool, cores)
	touch := func(c int, addr uint64) {
		if addr == 0 {
			return
		}
		if open[c] == nil {
			open[c] = map[uint64]bool{}
		}
		open[c][addr] = true
	}

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
			open[c] = nil
		case flight.TxnCommit:
			ctr[telemetry.CtrTxnCommits]++
			cs.Commits++
			cs.ConsecAborts = 0
			cs.Status = Idle
			open[c] = nil
		case flight.TxnAbort:
			ctr[telemetry.CtrTxnAborts]++
			cs.Aborts++
			cs.ConsecAborts++
			if cs.Status != Serialized {
				cs.Status = Aborted
			}
			open[c] = nil
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
			touch(c, uint64(r.Line))
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
				la := lineOf(addr)
				la.conflicts++
				// Aux's low bits carry the cst.Kind recorded in the
				// requestor's table: RW = requestor read / responder wrote,
				// WR = requestor wrote / responder read, WW = both wrote.
				switch cst.Kind(r.Aux & flight.AuxMask) {
				case cst.RW:
					la.readers[c] = true
					if p >= 0 {
						la.writers[p] = true
						la.lastWriter = p
					}
				case cst.WR:
					la.writers[c] = true
					la.lastWriter = c
					if p >= 0 {
						la.readers[p] = true
					}
				case cst.WW:
					la.writers[c] = true
					la.lastWriter = c
					if p >= 0 {
						la.writers[p] = true
					}
				}
				touch(c, addr)
				if p >= 0 && p < cores {
					touch(p, addr)
				}
			}
		case flight.AOUAlert:
			ctr[telemetry.CtrAlert]++
		case flight.OTSpill:
			ctr[telemetry.CtrOTSpill]++
			touch(c, uint64(r.Line))
		case flight.CommitRefused:
			ctr[telemetry.CtrCommitCSTFail]++
		case flight.GovStep:
			ctr[telemetry.CtrGovStep]++
			st.GovLevel = int(r.Aux)
		}
	}

	for c := range open {
		st.Cores[c].SigLines = len(open[c])
	}
	addrs := make([]uint64, 0, len(lines))
	for a := range lines {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		la := lines[a]
		ls := LineState{Line: a, LastWriter: la.lastWriter, Conflicts: la.conflicts}
		for w := range la.writers {
			ls.Writers = append(ls.Writers, w)
		}
		for rd := range la.readers {
			ls.Readers = append(ls.Readers, rd)
		}
		sort.Ints(ls.Writers)
		sort.Ints(ls.Readers)
		st.Lines = append(st.Lines, ls)
	}
	return st
}
