package signature

import (
	"math/bits"

	"flextm/internal/memory"
)

// maxSlots is the number of signatures a Slices index can hold.
const maxSlots = 64

// listCap is how many set bits of one slot's signature the index lists:
// enough for 16 lines at the paper's 4 banks. Each slot's list has one
// spare entry past its end (listStride).
const (
	listCap    = 64
	listStride = listCap + 1
)

// Slices is a bit-sliced index over up to maxSlots (64) signatures of one
// geometry, one signature per slot: for each filter bit, the mask of the
// slots whose signature has that bit set. Testing one line against every
// slot is then one AND per bank (Hits) instead of one Member per
// signature — the parallel check every L1 controller makes of its own
// signatures against a forwarded request.
//
// The index is exact as long as every change to a slot's signature goes
// through it (Insert, Clear, Copy). Per slot it lists the bits the
// signature has set, up to listCap of them, so clearing a small signature
// visits only its own bits; a fuller one is cleared by one pass over the
// index.
type Slices struct {
	cfg Config
	// masks holds one lane per filter bit: the lane of bit i, the slots
	// whose signature has bit i set, is the 1<<lane bits of word
	// i>>(6-lane) at offset i<<lane&63. A lane is as narrow as the slot
	// count allows (16 bits for the paper's 16 cores), so a probe round's
	// and an insert's masks span as few cache lines as they can.
	masks []uint64
	lane  uint
	// bits[slot*listStride:][:n[slot]] are the slot's set bits while
	// n[slot] <= listCap; a larger n[slot] means the list overflowed.
	bits []uint16
	n    []uint8
}

// NewSlices returns an empty index of slots signatures with geometry cfg.
// It panics on a geometry that Validate rejects.
func NewSlices(cfg Config, slots int) *Slices {
	cfg.mustShift()
	if slots <= 0 || slots > maxSlots {
		panic("signature: slot count must be in 1..64")
	}
	lane := uint(4)
	for 1<<lane < slots {
		lane++
	}
	return &Slices{
		cfg:   cfg,
		masks: make([]uint64, cfg.Bits>>(6-lane)),
		lane:  lane,
		bits:  make([]uint16, slots*listStride),
		n:     make([]uint8, slots),
	}
}

// Mask returns the slots whose signature has filter bit i set.
func (x *Slices) Mask(i int) uint64 { return x.at(uint(i)) & x.laneMask() }

// at returns the word holding bit i's lane, shifted down to it; the bits
// above the lane belong to other filter bits.
func (x *Slices) at(i uint) uint64 { return x.masks[i>>(6-x.lane)] >> (i << x.lane & 63) }

// laneMask has a lane's bits set.
func (x *Slices) laneMask() uint64 { return 1<<(1<<x.lane) - 1 }

// lanePos returns the word index and the bit offset of bit i's lane.
func (x *Slices) lanePos(i uint) (int, uint) { return int(i >> (6 - x.lane)), i << x.lane & 63 }

// Hits returns the slots whose signature answers Member of k's line with
// true. The key's geometry must match.
func (x *Slices) Hits(k *Key) uint64 {
	if k.cfg != x.cfg {
		panic("signature: Hits with a key of another geometry")
	}
	h := x.laneMask()
	for _, i := range k.bit[:x.cfg.Banks] {
		h &= x.at(uint(i))
	}
	return h
}

// Insert inserts line l into s, the signature in slot, and records any
// bit that was newly set. It hashes l itself: the insert is the only use
// of its bit positions.
func (x *Slices) Insert(slot int, s *Sig, l memory.LineAddr) {
	cfg := x.cfg
	if s.cfg != cfg {
		panic("signature: Insert into a signature of another geometry")
	}
	shift := s.shift
	words, masks := s.words, x.masks
	wordShift, lane := (6-x.lane)&63, x.lane&63
	bit := uint64(1) << uint(slot&63)
	list := (*[listStride]uint16)(x.bits[slot*listStride:])
	n := uint(x.n[slot])
	for b, salt := range bankSalts[:cfg.Banks] {
		i := bankBit(l, b, salt, shift)
		w := &words[i>>6]
		old := *w
		*w = old | 1<<(i&63)
		// Branch-free: fresh is 1 when the bit was clear, and the bit is
		// always written to the list's next entry, which only a fresh bit
		// claims. Past the list's end it goes to a spare entry.
		fresh := ^old >> (i & 63) & 1
		masks[i>>wordShift] |= bit * fresh << (i << lane & 63)
		list[min(n, listCap)] = uint16(i)
		n += uint(fresh)
	}
	if n > listCap {
		n = listCap + 1
	}
	x.n[slot] = uint8(n)
	s.noteInsert(l)
}

// set records that the signature in slot has set bit i.
func (x *Slices) set(slot, i int) {
	w, off := x.lanePos(uint(i))
	x.masks[w] |= 1 << uint(slot) << off
	if n := int(x.n[slot]); n < listCap {
		x.bits[slot*listStride+n] = uint16(i)
		x.n[slot]++
	} else {
		x.n[slot] = listCap + 1
	}
}

// Clear clears s, the signature in slot, and its bits in the index.
func (x *Slices) Clear(slot int, s *Sig) {
	bit := uint64(1) << uint(slot)
	masks, words, lane := x.masks, s.words, x.lane
	if n := int(x.n[slot]); n <= listCap {
		for _, i := range x.bits[slot*listStride:][:n] {
			masks[i>>(6-lane)] &^= bit << (i << lane & 63)
			words[i>>6] = 0
		}
	} else {
		x.sweep(slot)
		clear(words)
	}
	x.n[slot] = 0
	s.inserts = 0
	if s.audit != nil {
		clear(s.audit.set)
	}
}

// sweep clears slot's bit in every lane: once a signature holds more bits
// than the list, a pass over the whole index costs less than one
// read-modify-write per bit.
func (x *Slices) sweep(slot int) {
	rep := uint64(0)
	for off := uint(0); off < 64; off += 1 << x.lane {
		rep |= 1 << uint(slot) << off
	}
	masks := x.masks
	for i := range masks {
		masks[i] &^= rep
	}
}

// Copy overwrites s, the signature in slot, with from's contents
// (Sig.CopyFrom) and re-indexes the slot.
func (x *Slices) Copy(slot int, s, from *Sig) {
	x.sweep(slot)
	x.n[slot] = 0
	s.CopyFrom(from)
	x.Load(slot, s)
}

// Load records every bit of s in slot, which must be empty: a new index
// takes in signatures built outside it (a rehash to a new geometry).
func (x *Slices) Load(slot int, s *Sig) {
	if s.cfg != x.cfg {
		panic("signature: Load of a signature of another geometry")
	}
	for w, v := range s.words {
		for ; v != 0; v &= v - 1 {
			x.set(slot, w<<6|bits.TrailingZeros64(v))
		}
	}
}
