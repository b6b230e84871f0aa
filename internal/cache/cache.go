// Package cache models the private L1 data cache of a FlexTM core: a
// set-associative array whose lines carry the TMESI state machine of
// Figure 1 plus the A (alert) bit, backed by a small victim buffer, exactly
// as configured in Table 3(a) of the paper (32 KB, 2-way, 64-byte blocks,
// 32-entry victim buffer).
//
// The package holds state and data; the coherence protocol that drives
// transitions lives in internal/tmesi.
//
// Flash commit/abort is a gang-clear of T bits in the paper, so it should
// cost nothing per idle line. The model gets close: it keeps the set array
// flat with a parallel tag array (Lookup compares tags before touching a
// line), and a PDI mask with one bit per set slot that Lookup and Insert
// set on every slot they hand out or fill. FlashCommit, FlashAbort,
// ClearAlerts and TMILines visit only marked slots, in the same set-major
// order as a full walk, plus the whole victim buffer, so they cost
// O(lines touched since the last walk) rather than O(L1 size).
//
// Insert hands victim-buffer spills back in a buffer the cache reuses, so
// a spill allocates nothing. TagCache, the shared L2's tag array, builds a
// set's ways the first time the set is touched, in segments that double
// and are never copied, so an 8 MB L2 costs what the sets a simulation
// touches cost, not 16,384 sets up front.
package cache

import (
	"fmt"
	"math/bits"

	"flextm/internal/memory"
)

// State is a TMESI cache-line state. The encoding follows Figure 1 of the
// paper: TMI is M-bit+T-bit ("transactional store buffered here"); TI is
// T-bit in the invalid state ("read a threatened line's committed value").
type State uint8

const (
	// Invalid: no valid copy.
	Invalid State = iota
	// Shared: clean, possibly multiple sharers.
	Shared
	// Exclusive: clean, sole copy.
	Exclusive
	// Modified: dirty, sole copy, non-speculative.
	Modified
	// TMI: speculatively written (TStore); invisible to remote readers
	// until commit. Reverts to Modified on commit, Invalid on abort.
	TMI
	// TI: holds the committed value of a line that some remote processor
	// has in TMI. Reverts to Invalid on commit or abort.
	TI
)

// String returns the conventional state name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case TMI:
		return "TMI"
	case TI:
		return "TI"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Valid reports whether the state holds usable data for local reads.
func (s State) Valid() bool { return s != Invalid }

// Speculative reports whether the state is one of the PDI states that flash
// commit/abort must touch.
func (s State) Speculative() bool { return s == TMI || s == TI }

// Line is one cache line.
type Line struct {
	// Tag is written only by this package: Cache mirrors it in a tag array.
	Tag   memory.LineAddr
	State State
	Alert bool // the AOU 'A' bit
	Data  memory.LineData
	lru   uint64
}

// Config fixes a cache's geometry.
type Config struct {
	Sets       int // number of sets (power of two)
	Ways       int
	VictimSize int // entries in the victim buffer; <0 means unbounded
	// UnboundedTMIVictim lets speculative (TMI) lines stay in the victim
	// buffer without bound while non-speculative lines obey VictimSize:
	// the "ideal infinite speculative buffer" of the Section 7.3 ablation.
	UnboundedTMIVictim bool
}

// DefaultL1Config is the paper's L1: 32 KB, 2-way, 64 B lines -> 256 sets,
// with a 32-entry victim buffer.
func DefaultL1Config() Config { return Config{Sets: 256, Ways: 2, VictimSize: 32} }

// Cache is a set-associative cache with a victim buffer. The zero value is
// not usable; call New.
type Cache struct {
	cfg Config
	// lines is the set array, set-major: set s occupies
	// lines[s*Ways : (s+1)*Ways]. tags mirrors lines[i].Tag so a lookup
	// scans 8-byte tags instead of whole lines.
	lines []Line
	tags  []memory.LineAddr
	// pdi has one bit per set slot. A slot's bit is set whenever Lookup
	// returns it or Insert fills it, and every pointer into the set array
	// comes from one of those two, so any slot that may be TMI, TI or
	// alerted is marked. Flash walks visit only marked slots.
	pdi    []uint64
	victim []Line            // FIFO order: victim[0] is oldest
	vtags  []memory.LineAddr // vtags[i] == victim[i].Tag
	// spill is Insert's result buffer, reused from call to call.
	spill []Victimized
	clock uint64
	// drop, when set, is called with the tag of each line a flash walk
	// turns Invalid.
	drop func(memory.LineAddr)
}

// New returns an empty cache with the given geometry.
func New(cfg Config) *Cache {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 || cfg.Ways <= 0 {
		panic("cache: invalid geometry")
	}
	n := cfg.Sets * cfg.Ways
	return &Cache{
		cfg:   cfg,
		lines: make([]Line, n),
		tags:  make([]memory.LineAddr, n),
		pdi:   make([]uint64, (n+63)/64),
	}
}

// setBase returns the index in lines of way 0 of l's set.
func (c *Cache) setBase(l memory.LineAddr) int {
	return int(uint64(l)&uint64(c.cfg.Sets-1)) * c.cfg.Ways
}

func (c *Cache) mark(i int) { c.pdi[i>>6] |= 1 << uint(i&63) }

// Lookup returns the line holding l, or nil. A hit in the victim buffer
// counts; the line is not moved (the victim buffer is searched in parallel
// with the set in hardware).
func (c *Cache) Lookup(l memory.LineAddr) *Line {
	base := c.setBase(l)
	for i, t := range c.tags[base : base+c.cfg.Ways] {
		if t == l {
			if ln := &c.lines[base+i]; ln.State != Invalid {
				c.clock++
				ln.lru = c.clock
				c.mark(base + i)
				return ln
			}
		}
	}
	for i, t := range c.vtags {
		if t == l && c.victim[i].State != Invalid {
			return &c.victim[i]
		}
	}
	return nil
}

// Victimized is a line pushed out of the victim buffer by an Insert; the
// caller must write back Modified data and spill TMI lines to the overflow
// table.
type Victimized struct {
	Line Line
}

// Insert places a new line into the cache, evicting as needed. The evicted
// set line (if any) moves to the victim buffer; anything that falls off the
// victim buffer is returned for the caller to handle, or nil if nothing
// does. The returned slice is the cache's own buffer: it is valid only
// until the next Insert on this cache, so the caller must consume (or
// copy) it first. Insert panics if the line is already present (use
// Lookup first).
func (c *Cache) Insert(ln Line) []Victimized {
	if c.Lookup(ln.Tag) != nil {
		panic(fmt.Sprintf("cache: Insert of resident line %d", ln.Tag))
	}
	c.clock++
	ln.lru = c.clock
	base := c.setBase(ln.Tag)
	set := c.lines[base : base+c.cfg.Ways]
	// Empty way?
	for i := range set {
		if set[i].State == Invalid {
			c.fill(base+i, ln)
			return nil
		}
	}
	// Evict the LRU way to the victim buffer.
	vi := 0
	for i := range set {
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	evicted := set[vi]
	c.fill(base+vi, ln)
	return c.pushVictim(evicted)
}

func (c *Cache) fill(i int, ln Line) {
	c.lines[i] = ln
	c.tags[i] = ln.Tag
	c.mark(i)
}

func (c *Cache) pushVictim(ln Line) []Victimized {
	out := c.spill[:0]
	if c.cfg.VictimSize == 0 && !(c.cfg.UnboundedTMIVictim && ln.State == TMI) {
		c.spill = append(out, Victimized{Line: ln})
		return c.spill
	}
	c.victim = append(c.victim, ln)
	c.vtags = append(c.vtags, ln.Tag)
	if c.cfg.VictimSize >= 0 {
		over := func() int {
			n := len(c.victim)
			if c.cfg.UnboundedTMIVictim {
				n = 0
				for _, v := range c.victim {
					if v.State != TMI {
						n++
					}
				}
			}
			return n
		}
		for over() > c.cfg.VictimSize {
			// Spill the oldest evictable entry.
			for i, v := range c.victim {
				if !c.cfg.UnboundedTMIVictim || v.State != TMI {
					out = append(out, Victimized{Line: v})
					c.victim = append(c.victim[:i], c.victim[i+1:]...)
					c.vtags = append(c.vtags[:i], c.vtags[i+1:]...)
					break
				}
			}
		}
	}
	c.spill = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// Invalidate drops the line holding l, if present, and returns its prior
// contents (for writeback decisions).
func (c *Cache) Invalidate(l memory.LineAddr) (Line, bool) {
	if ln := c.Lookup(l); ln != nil {
		old := *ln
		ln.State = Invalid
		ln.Alert = false
		return old, true
	}
	return Line{}, false
}

// OnFlashDrop registers f to be called with the tag of each valid line
// FlashCommit or FlashAbort turns Invalid, in walk order. The coherence
// layer uses it to keep its per-line holder index in step with the L1.
func (c *Cache) OnFlashDrop(f func(memory.LineAddr)) { c.drop = f }

// flashDrop invalidates ln on behalf of a flash walk.
func (c *Cache) flashDrop(ln *Line) {
	ln.State = Invalid
	if c.drop != nil {
		c.drop(ln.Tag)
	}
}

// FlashCommit applies the CAS-Commit success transition to every line:
// TMI -> M (speculative data becomes the committed copy) and TI -> I.
// It returns the number of lines committed (TMI, now M).
func (c *Cache) FlashCommit() int {
	n := 0
	c.walkPDI(func(ln *Line) {
		switch ln.State {
		case TMI:
			ln.State = Modified
			n++
		case TI:
			c.flashDrop(ln)
		}
	})
	return n
}

// FlashAbort applies the abort transition to every line: TMI -> I
// (speculative data discarded) and TI -> I. It returns the number of lines
// dropped.
func (c *Cache) FlashAbort() int {
	n := 0
	c.walkPDI(func(ln *Line) {
		if ln.State.Speculative() {
			c.flashDrop(ln)
			n++
		}
	})
	return n
}

// TMILines returns the addresses of all TMI lines (used when the OS saves a
// descheduled transaction's speculative state into its overflow table).
func (c *Cache) TMILines() []memory.LineAddr {
	var out []memory.LineAddr
	c.walkPDI(func(ln *Line) {
		if ln.State == TMI {
			out = append(out, ln.Tag)
		}
	})
	return out
}

// ClearAlerts drops every A bit (used on abort/commit of the watched word's
// owner context).
func (c *Cache) ClearAlerts() {
	c.walkPDI(func(ln *Line) { ln.Alert = false })
}

// Resident returns the number of valid lines (set array + victim buffer).
// It only reads: the victim buffer is not compacted.
func (c *Cache) Resident() int {
	n := 0
	c.EachValid(func(Line) { n++ })
	return n
}

// EachValid calls f with every valid line (set array in slot order, then
// the victim buffer) without touching LRU or PDI state.
func (c *Cache) EachValid(f func(Line)) {
	for i := range c.lines {
		if c.lines[i].State != Invalid {
			f(c.lines[i])
		}
	}
	for i := range c.victim {
		if c.victim[i].State != Invalid {
			f(c.victim[i])
		}
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// walkPDI calls f on every marked set slot in ascending slot order, which
// is set-major order, and then on every victim-buffer entry, compacting the
// victim buffer. Unmarked slots cannot be TMI, TI or alerted, so f would
// leave them unchanged. A slot that f leaves neither speculative nor
// alerted loses its mark.
func (c *Cache) walkPDI(f func(*Line)) {
	for w, word := range c.pdi {
		keep := word
		for rest := word; rest != 0; rest &= rest - 1 {
			b := bits.TrailingZeros64(rest)
			ln := &c.lines[w<<6|b]
			f(ln)
			if !ln.State.Speculative() && !ln.Alert {
				keep &^= 1 << uint(b)
			}
		}
		c.pdi[w] = keep
	}
	live := 0
	for i := range c.victim {
		f(&c.victim[i])
		if c.victim[i].State != Invalid {
			c.victim[live] = c.victim[i]
			c.vtags[live] = c.vtags[i]
			live++
		}
	}
	c.victim = c.victim[:live]
	c.vtags = c.vtags[:live]
}

// TagCache is a tag-only set-associative cache used for the shared L2
// timing model: it answers hit/miss and tracks evictions but holds no data
// (data lives in the committed memory image).
//
// The paper's L2 has 16,384 sets, of which one simulation touches a few
// hundred to a few thousand, so sets are built on first touch: dir maps a
// set to its first-touch ordinal, and segs stores the built sets in that
// order. Segment 0 holds the first segSets sets and segment k >= 1 the next
// segSets<<(k-1), so the store doubles without regrowing: a set once built
// never moves, n built sets take about log2(n/segSets)+1 allocations, and
// the segments hold at most twice the sets built.
type TagCache struct {
	// dir has one entry per set: 0 means the set was never touched,
	// otherwise dir[s]-1 is the set's first-touch ordinal.
	dir   []int32
	segs  [maxSegs][]tagEntry // nil until the segment's first set is built
	built int32               // sets built so far
	ways  int
	mask  uint64
	clock uint64
}

// segShift sizes segment 0 at segSets sets (4 KB at the paper's 8 ways):
// one allocation holds a short cell's sets, and a long cell's sets take
// a few doublings more.
const (
	segShift = 5
	segSets  = 1 << segShift
	// maxSegs segments cover every int32 ordinal.
	maxSegs = 32 - segShift
)

// tagEntry is one L2 way. lru == 0 means invalid: Touch bumps the clock
// before every use, so a valid way's lru is at least 1.
type tagEntry struct {
	tag memory.LineAddr
	lru uint64
}

// NewTagCache returns a tag cache with the given geometry.
func NewTagCache(sets, ways int) *TagCache {
	if sets <= 0 || sets&(sets-1) != 0 || ways <= 0 {
		panic("cache: invalid tag cache geometry")
	}
	return &TagCache{dir: make([]int32, sets), ways: ways, mask: uint64(sets - 1)}
}

// segOf returns the offset within its segment, and the segment, of the
// set with first-touch ordinal ord.
func segOf(ord int) (off, k int) {
	k = bits.Len(uint(ord >> segShift))
	if k > 0 {
		ord -= segSets << (k - 1)
	}
	return ord, k
}

// build gives set s the next first-touch ordinal, allocating a segment
// when the ordinal opens one. A segment never holds more sets than the
// cache has.
func (t *TagCache) build(s uint64) {
	ord := int(t.built)
	t.built++
	t.dir[s] = t.built
	if off, k := segOf(ord); off == 0 {
		t.segs[k] = make([]tagEntry, min(max(ord, segSets), len(t.dir))*t.ways)
	}
}

// Touch records an access to line l and reports whether it hit, along with
// any line evicted to make room.
func (t *TagCache) Touch(l memory.LineAddr) (hit bool, evicted memory.LineAddr, hasEvicted bool) {
	t.clock++
	s := uint64(l) & t.mask
	if t.dir[s] == 0 {
		t.build(s)
	}
	off, k := segOf(int(t.dir[s]) - 1)
	set := t.segs[k][off*t.ways : (off+1)*t.ways]
	// The L2 never invalidates a way, so the invalid ways of a set are
	// the ones after its last fill: the first invalid way ends the search.
	for i := range set {
		switch {
		case set[i].lru == 0:
			set[i] = tagEntry{tag: l, lru: t.clock}
			return false, 0, false
		case set[i].tag == l:
			set[i].lru = t.clock
			return true, 0, false
		}
	}
	vi := 0
	for i := range set {
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	old := set[vi].tag
	set[vi] = tagEntry{tag: l, lru: t.clock}
	return false, old, true
}
