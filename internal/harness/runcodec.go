package harness

// This file is the cell cache's run codec: the payload of a "run" entry is
// one cachedResult in a compact binary form, written and read by straight
// line code instead of encoding/json's reflection. Every field is written
// in cachedResult's declaration order:
//
//	strings    uvarint length, then the bytes
//	ints       zigzag varint
//	uint64s    uvarint
//	Throughput 8 bytes, little-endian math.Float64bits
//	Machine    every tmesi.Stats counter in declaration order
//	Telemetry  uvarint 0 for nil, else cores+1; then per core the
//	           counters, and per histogram its buckets, Count and Sum
//	FlightRecs uvarint count; per record At and Seq as zigzag deltas from
//	           the previous record (so records in any order round-trip),
//	           Dur, Line, Core, Peer, then Kind and Aux as one byte each
//	HasFlight  one byte
//	FaultReport one presence byte; Rolls and Fired as a count then
//	           key/value pairs in sorted key order; Total
//
// The decoder trusts nothing: every length is checked against the bytes
// left before anything is allocated, so a damaged payload is an error,
// never a panic or a large allocation.

import (
	"encoding/binary"
	"errors"
	"math"
	"sort"

	"flextm/internal/fault"
	"flextm/internal/flight"
	"flextm/internal/memory"
	"flextm/internal/telemetry"
	"flextm/internal/tmesi"
)

// errRunPayload is every decode failure: the store only needs to know the
// entry is unusable.
var errRunPayload = errors.New("harness: malformed run cell payload")

// Minimum encoded sizes, for bounding counts before allocating.
const (
	minRecBytes  = 8 // six varints of one byte each, Kind and Aux
	minCoreBytes = int(telemetry.NumCounters) + int(telemetry.NumHists)*(telemetry.HistBuckets+2)
	minPairBytes = 2 // an empty key and a one-byte value
)

// appendRun appends cv's encoding to b.
func appendRun(b []byte, cv *cachedResult) []byte {
	b = appendString(b, string(cv.System))
	b = appendString(b, cv.Workload)
	b = binary.AppendVarint(b, int64(cv.Threads))
	b = binary.AppendUvarint(b, cv.Commits)
	b = binary.AppendUvarint(b, cv.Aborts)
	b = binary.AppendUvarint(b, cv.Cycles)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cv.Throughput))
	b = binary.AppendVarint(b, int64(cv.MedianConflicts))
	b = binary.AppendVarint(b, int64(cv.MaxConflicts))
	b = appendMachine(b, &cv.Machine)

	if cv.Telemetry == nil {
		b = append(b, 0)
	} else {
		b = binary.AppendUvarint(b, uint64(len(cv.Telemetry.Cores))+1)
		for i := range cv.Telemetry.Cores {
			c := &cv.Telemetry.Cores[i]
			for _, v := range c.Counters {
				b = binary.AppendUvarint(b, v)
			}
			for h := range c.Hists {
				for _, v := range c.Hists[h].Buckets {
					b = binary.AppendUvarint(b, v)
				}
				b = binary.AppendUvarint(b, c.Hists[h].Count)
				b = binary.AppendUvarint(b, c.Hists[h].Sum)
			}
		}
	}

	b = binary.AppendUvarint(b, uint64(len(cv.FlightRecs)))
	var at, seq uint64
	for i := range cv.FlightRecs {
		r := &cv.FlightRecs[i]
		b = binary.AppendVarint(b, int64(r.At-at))
		b = binary.AppendUvarint(b, r.Dur)
		b = binary.AppendUvarint(b, uint64(r.Line))
		b = binary.AppendVarint(b, int64(r.Seq-seq))
		b = binary.AppendVarint(b, int64(r.Core))
		b = binary.AppendVarint(b, int64(r.Peer))
		b = append(b, byte(r.Kind), r.Aux)
		at, seq = r.At, r.Seq
	}
	b = appendBool(b, cv.HasFlight)
	b = binary.AppendUvarint(b, cv.Escalations)

	if cv.FaultReport == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendCounts(b, cv.FaultReport.Rolls)
	b = appendCounts(b, cv.FaultReport.Fired)
	return binary.AppendUvarint(b, cv.FaultReport.Total)
}

// appendMachine writes every tmesi.Stats counter in declaration order.
func appendMachine(b []byte, m *tmesi.Stats) []byte {
	for _, v := range [...]uint64{
		m.Loads, m.Stores, m.TLoads, m.TStores, m.L1Hits, m.L1Misses,
		m.L2Misses, m.Probes, m.ThreatenedResponses, m.ExposedReadResponses,
		m.StrongIsolationAborts, m.Overflows, m.OTFetches, m.OTAllocs,
		m.Alerts, m.FlashCommits, m.FlashAborts, m.CASCommitCSTFails,
		m.SummaryTraps,
	} {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendCounts writes a count map in sorted key order, so equal maps
// encode to equal bytes.
func appendCounts(b []byte, m map[string]uint64) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendString(b, k)
		b = binary.AppendUvarint(b, m[k])
	}
	return b
}

// decodeRun decodes a payload written by appendRun. Trailing bytes are an
// error: the payload must be exactly one cachedResult.
func decodeRun(p []byte) (cachedResult, error) {
	d := runDecoder{b: p}
	var cv cachedResult
	cv.System = SystemName(d.string())
	cv.Workload = d.string()
	cv.Threads = d.int()
	cv.Commits = d.uvarint()
	cv.Aborts = d.uvarint()
	cv.Cycles = d.uvarint()
	cv.Throughput = math.Float64frombits(d.fixed64())
	cv.MedianConflicts = d.int()
	cv.MaxConflicts = d.int()
	d.machine(&cv.Machine)

	if n := d.count(minCoreBytes, 1); n > 0 {
		cores := make([]telemetry.CoreSnapshot, n-1)
		for i := range cores {
			c := &cores[i]
			for j := range c.Counters {
				c.Counters[j] = d.uvarint()
			}
			for h := range c.Hists {
				for j := range c.Hists[h].Buckets {
					c.Hists[h].Buckets[j] = d.uvarint()
				}
				c.Hists[h].Count = d.uvarint()
				c.Hists[h].Sum = d.uvarint()
			}
		}
		cv.Telemetry = &telemetry.Snapshot{Cores: cores}
	}

	if n := d.count(minRecBytes, 0); n > 0 {
		recs := make([]flight.Rec, n)
		var at, seq uint64
		for i := range recs {
			r := &recs[i]
			at += uint64(d.varint())
			r.At = at
			r.Dur = d.uvarint()
			r.Line = memory.LineAddr(d.uvarint())
			seq += uint64(d.varint())
			r.Seq = seq
			r.Core = d.int16()
			r.Peer = d.int16()
			r.Kind = flight.Kind(d.byte())
			r.Aux = d.byte()
		}
		cv.FlightRecs = recs
	}
	cv.HasFlight = d.bool()
	cv.Escalations = d.uvarint()

	if d.bool() {
		rep := &fault.Report{}
		rep.Rolls = d.counts()
		rep.Fired = d.counts()
		rep.Total = d.uvarint()
		cv.FaultReport = rep
	}
	if d.bad || d.left() != 0 {
		return cachedResult{}, errRunPayload
	}
	return cv, nil
}

// runDecoder reads appendRun's primitives from b[off:]. The first failure
// sets bad and moves off to the end, so every later read returns zero
// without another check at each call site; decodeRun tests bad once at the
// end. Reads advance an index rather than reslicing b, which would be a
// pointer store (and a GC write barrier) per varint.
type runDecoder struct {
	b   []byte
	off int
	bad bool
}

func (d *runDecoder) fail() {
	d.bad = true
	d.off = len(d.b)
}

// uvarint takes one-byte values — most telemetry words and record fields —
// inline, and leaves longer ones to encoding/binary.
func (d *runDecoder) uvarint() uint64 {
	if i := d.off; i < len(d.b) {
		if c := d.b[i]; c < 0x80 {
			d.off = i + 1
			return uint64(c)
		}
	}
	return d.uvarintSlow()
}

func (d *runDecoder) uvarintSlow() uint64 {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// varint undoes binary.AppendVarint's zigzag mapping.
func (d *runDecoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *runDecoder) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail()
		return 0
	}
	return int(v)
}

func (d *runDecoder) int16() int16 {
	v := d.varint()
	if v < math.MinInt16 || v > math.MaxInt16 {
		d.fail()
		return 0
	}
	return int16(v)
}

func (d *runDecoder) byte() byte {
	if d.off >= len(d.b) {
		d.fail()
		return 0
	}
	d.off++
	return d.b[d.off-1]
}

func (d *runDecoder) bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail()
	return false
}

func (d *runDecoder) fixed64() uint64 {
	if len(d.b)-d.off < 8 {
		d.fail()
		return 0
	}
	d.off += 8
	return binary.LittleEndian.Uint64(d.b[d.off-8:])
}

// left is the number of unread bytes.
func (d *runDecoder) left() int { return len(d.b) - d.off }

func (d *runDecoder) string() string {
	n := d.uvarint()
	if n > uint64(d.left()) {
		d.fail()
		return ""
	}
	d.off += int(n)
	return string(d.b[d.off-int(n) : d.off])
}

// count reads an element count stored with the given offset (1 for
// presence-plus-count fields, else 0) and fails unless the remaining input
// could hold that many elements of at least minBytes each.
func (d *runDecoder) count(minBytes, offset int) int {
	n := d.uvarint()
	if n <= uint64(offset) {
		return int(n)
	}
	if n-uint64(offset) > uint64(d.left()/minBytes) {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *runDecoder) counts() map[string]uint64 {
	n := d.count(minPairBytes, 0)
	if n == 0 {
		return nil
	}
	m := make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		k := d.string()
		m[k] = d.uvarint()
	}
	return m
}

func (d *runDecoder) machine(m *tmesi.Stats) {
	for _, p := range [...]*uint64{
		&m.Loads, &m.Stores, &m.TLoads, &m.TStores, &m.L1Hits, &m.L1Misses,
		&m.L2Misses, &m.Probes, &m.ThreatenedResponses, &m.ExposedReadResponses,
		&m.StrongIsolationAborts, &m.Overflows, &m.OTFetches, &m.OTAllocs,
		&m.Alerts, &m.FlashCommits, &m.FlashAborts, &m.CASCommitCSTFails,
		&m.SummaryTraps,
	} {
		*p = d.uvarint()
	}
}
