package tmesi

import (
	"math/bits"

	"flextm/internal/memory"
)

// holderIndex maps a line to the nonzero mask of cores that may hold it.
// It is an open-addressing table with linear probing and backward-shift
// deletion: a removed entry leaves no tombstone, so the table's size
// follows the number of lines the L1s hold, however many distinct lines
// pass through them. (A Go map under the same insert/delete churn keeps
// growing its tables; on a 16-core machine that cost megabytes of peak
// RSS per run.)
type holderIndex struct {
	slots []holderSlot // power-of-two length; mask 0 marks an empty slot
	n     int
	shift uint // 64 - log2(len(slots))
}

type holderSlot struct {
	line memory.LineAddr
	mask uint64
}

const holderMinSlots = 256

// home is line's preferred slot (Fibonacci hashing).
func (h *holderIndex) home(line memory.LineAddr) int {
	return int((uint64(line) * 0x9E3779B97F4A7C15) >> h.shift)
}

// find returns the slot holding line, or the empty slot where it would go.
func (h *holderIndex) find(line memory.LineAddr) int {
	m := len(h.slots) - 1
	i := h.home(line)
	for h.slots[i].mask != 0 && h.slots[i].line != line {
		i = (i + 1) & m
	}
	return i
}

// get returns line's mask (0 when no core holds it).
func (h *holderIndex) get(line memory.LineAddr) uint64 {
	if h.n == 0 {
		return 0
	}
	return h.slots[h.find(line)].mask
}

// add records that core may hold line.
func (h *holderIndex) add(line memory.LineAddr, core int) {
	if 2*(h.n+1) > len(h.slots) {
		h.grow()
	}
	i := h.find(line)
	if h.slots[i].mask == 0 {
		h.slots[i].line = line
		h.n++
	}
	h.slots[i].mask |= coreBit(core)
}

// drop records that core no longer holds line, removing the entry when no
// holder is left.
func (h *holderIndex) drop(line memory.LineAddr, core int) {
	if h.n == 0 {
		return
	}
	i := h.find(line)
	if h.slots[i].mask&coreBit(core) == 0 {
		return
	}
	if h.slots[i].mask &^= coreBit(core); h.slots[i].mask != 0 {
		return
	}
	h.n--
	// Backward shift: move each later entry of the probe run whose home
	// does not lie cyclically in (i, j] into the hole, so no lookup's
	// probe sequence crosses an empty slot before reaching its entry.
	m := len(h.slots) - 1
	for j := (i + 1) & m; h.slots[j].mask != 0; j = (j + 1) & m {
		if k := h.home(h.slots[j].line); (j-k)&m >= (j-i)&m {
			h.slots[i] = h.slots[j]
			i = j
		}
	}
	h.slots[i] = holderSlot{}
}

// grow doubles the table (or allocates the first one) and reinserts every
// entry.
func (h *holderIndex) grow() {
	old := h.slots
	size := max(2*len(old), holderMinSlots)
	h.slots = make([]holderSlot, size)
	h.shift = uint(64 - bits.Len(uint(size-1)))
	for _, sl := range old {
		if sl.mask != 0 {
			h.slots[h.find(sl.line)] = sl
		}
	}
}
