package tmesi

import (
	"math/bits"

	"flextm/internal/memory"
	"flextm/internal/signature"
	"flextm/internal/telemetry"
)

// Every change to a core's Rsig or Wsig goes through this file, so the
// directory's sliced index (rslices, wslices), each core's insert filter
// and its cached audit-mode FP prediction follow the signatures exactly.

// insertFilterBits is log2 of the number of slots in a core's insert
// filter.
const insertFilterBits = 6

// insertFilter remembers lines a core has inserted into its signatures
// since they were last cleared, so an L1 hit on such a line skips hashing
// it again (inserting it again would change no filter bit and no shadow
// set). An entry is live only while its generation is the filter's;
// clearing the signatures bumps the generation instead of zeroing the
// slots.
type insertFilter struct {
	gen   uint32
	slots [1 << insertFilterBits]filterSlot
}

// filterSlot is one insert-filter entry: a line, whether it went into the
// write signature, and the generation it was recorded in.
type filterSlot struct {
	line  memory.LineAddr
	gen   uint32
	write bool
}

// slot returns the slot of line in the read or the write signature.
// Fibonacci hashing spreads the read and the write entries of nearby lines
// over every slot.
func (f *insertFilter) slot(line memory.LineAddr, write bool) *filterSlot {
	k := uint64(line) << 1
	if write {
		k |= 1
	}
	return &f.slots[k*0x9E3779B97F4A7C15>>(64-insertFilterBits)]
}

// has reports whether line was recorded for the read or the write
// signature in the current generation.
func (f *insertFilter) has(line memory.LineAddr, write bool) bool {
	sl := f.slot(line, write)
	return sl.line == line && sl.write == write && sl.gen == f.gen
}

// put records line for the read or the write signature in the current
// generation.
func (f *insertFilter) put(line memory.LineAddr, write bool) {
	*f.slot(line, write) = filterSlot{line, f.gen, write}
}

// reset forgets every entry. Generation 0 is never current, so the zero
// filter must be reset once before use.
func (f *insertFilter) reset() {
	if f.gen++; f.gen == 0 {
		f.slots = [1 << insertFilterBits]filterSlot{}
		f.gen = 1
	}
}

// predictedPPM is the audit-mode FP prediction classifyTest charges a
// ground-truth-negative test of sig, in whole ppm.
func predictedPPM(sig *signature.Sig) uint64 { return uint64(sig.PredictedFPR() * 1e6) }

// refreshPPM recomputes c's cached predictions after its signatures'
// occupancy may have changed.
func (c *coreState) refreshPPM() {
	if c.rsig.AuditEnabled() {
		c.rppm = predictedPPM(c.rsig)
	}
	if c.wsig.AuditEnabled() {
		c.wppm = predictedPPM(c.wsig)
	}
}

// sigInsert inserts line into core's write or read signature.
func (s *System) sigInsert(c *coreState, core int, line memory.LineAddr, write bool) {
	if c.filter.has(line, write) {
		return
	}
	if write {
		s.wslices.Insert(core, c.wsig, line)
		if c.wsig.AuditEnabled() {
			c.wppm = predictedPPM(c.wsig)
		}
	} else {
		s.rslices.Insert(core, c.rsig, line)
		if c.rsig.AuditEnabled() {
			c.rppm = predictedPPM(c.rsig)
		}
	}
	c.filter.put(line, write)
}

// sigClear clears core's signatures. An empty signature predicts 0 ppm.
func (s *System) sigClear(c *coreState, core int) {
	s.rslices.Clear(core, c.rsig)
	s.wslices.Clear(core, c.wsig)
	c.filter.reset()
	c.rppm, c.wppm = 0, 0
}

// sigRestore overwrites core's signatures with saved copies.
func (s *System) sigRestore(c *coreState, core int, rs, ws *signature.Sig) {
	s.rslices.Copy(core, c.rsig, rs)
	s.wslices.Copy(core, c.wsig, ws)
	c.filter.reset()
	c.refreshPPM()
}

// reindexSigs rebuilds the sliced index from every core's signatures
// after they were replaced (WidenSignatures), and resets what depends on
// them.
func (s *System) reindexSigs() {
	s.rslices = signature.NewSlices(s.cfg.Sig, len(s.cores))
	s.wslices = signature.NewSlices(s.cfg.Sig, len(s.cores))
	for i := range s.cores {
		c := &s.cores[i]
		s.rslices.Load(i, c.rsig)
		s.wslices.Load(i, c.wsig)
		c.filter.reset()
		c.refreshPPM()
	}
}

// chargeTrueNegatives charges each core of set that is still transactional
// the two signature tests a probe round skipped: neither signature hit, so
// both are true negatives, each charged its cached prediction, as
// classifyTest would. It runs only with telemetry attached, which puts
// every signature in audit mode (SetTelemetry).
func (s *System) chargeTrueNegatives(set uint64) {
	for set &= s.active; set != 0; set &= set - 1 {
		r := bits.TrailingZeros64(set)
		rc := &s.cores[r]
		s.tel.Add(r, telemetry.CtrSigTrueNeg, 2)
		s.tel.Add(r, telemetry.CtrSigPredFPpm, rc.wppm+rc.rppm)
	}
}

// classifyTest records responder r's test of line against sig in a probe
// round, checked against the precise shadow set in audit mode: a hit is a
// true positive or a Bloom false positive, and a miss is a true negative
// without a lookup, the shadow set being a subset of the filter. Every
// ground-truth negative is charged ppm, the core's cached prediction for
// sig, so observed and predicted rates cover the same population.
func (s *System) classifyTest(r int, sig *signature.Sig, ppm uint64, line memory.LineAddr, hit bool) {
	if !sig.AuditEnabled() {
		return
	}
	ctr := telemetry.CtrSigTrueNeg
	if hit {
		if sig.Inserted(line) {
			s.tel.Inc(r, telemetry.CtrSigTruePos)
			return
		}
		ctr = telemetry.CtrSigFalsePos
	}
	s.tel.Add(r, telemetry.CtrSigPredFPpm, ppm)
	s.tel.Inc(r, ctr)
}
