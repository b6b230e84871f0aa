// Package memory models the committed physical memory image of the
// simulated machine and a simple heap allocator over it.
//
// Addresses are 64-bit and refer to 8-byte words; a cache line is
// LineWords (8) consecutive words, 64 bytes. The image holds only committed
// state: speculative values live in L1 TMI lines and overflow tables, never
// here (see internal/tmesi).
//
// The image is sparse and paged: a page of 64 lines (4 KB) is built the
// first time one of its lines is written, and reads of unbuilt pages
// return zero without building anything. Setting up a simulation costs one
// allocation per page its workload writes, not one per line.
package memory

import "fmt"

const (
	// WordBytes is the size of one addressable word.
	WordBytes = 8
	// LineWords is the number of words per cache line.
	LineWords = 8
	// LineBytes is the size of one cache line.
	LineBytes = WordBytes * LineWords
)

// Addr is a simulated physical word address (byte address / WordBytes).
// Keeping word granularity avoids sub-word logic everywhere; the paper's
// workloads are all word-structured.
type Addr uint64

// LineAddr is the address of a cache line (word address / LineWords).
type LineAddr uint64

// Line returns the cache line containing a.
func (a Addr) Line() LineAddr { return LineAddr(a / LineWords) }

// Offset returns a's word offset within its line.
func (a Addr) Offset() int { return int(a % LineWords) }

// WordOf returns the address of word offset off within line l.
func (l LineAddr) WordOf(off int) Addr { return Addr(uint64(l)*LineWords + uint64(off)) }

// LineData is the payload of one cache line.
type LineData [LineWords]uint64

// pageLines is the number of lines in one page of the committed image.
const pageLines = 64

// page holds pageLines consecutive committed lines.
type page [pageLines]LineData

// Image is the committed memory image. It stores memory in pages of
// pageLines lines, keyed by line address / pageLines, built on first write
// and never freed; unwritten memory reads as zero. The last page used is
// remembered, so runs of accesses to one page skip the map. The zero value
// is not usable; call NewImage.
type Image struct {
	pages map[LineAddr]*page
	// last is the page numbered lastKey, or nil.
	last    *page
	lastKey LineAddr
}

// NewImage returns an empty image; unwritten memory reads as zero.
func NewImage() *Image {
	return &Image{pages: make(map[LineAddr]*page)}
}

// ReadWord returns the committed value at a.
func (im *Image) ReadWord(a Addr) uint64 {
	if ld := im.find(a.Line()); ld != nil {
		return ld[a.Offset()]
	}
	return 0
}

// WriteWord sets the committed value at a.
func (im *Image) WriteWord(a Addr, v uint64) {
	im.line(a.Line())[a.Offset()] = v
}

// ReadLine copies the committed contents of line l into dst.
func (im *Image) ReadLine(l LineAddr, dst *LineData) {
	if ld := im.find(l); ld != nil {
		*dst = *ld
	} else {
		*dst = LineData{}
	}
}

// WriteLine replaces the committed contents of line l with src.
func (im *Image) WriteLine(l LineAddr, src *LineData) {
	*im.line(l) = *src
}

// find returns line l, or nil if its page was never written.
func (im *Image) find(l LineAddr) *LineData {
	key := l / pageLines
	if im.last == nil || im.lastKey != key {
		p, ok := im.pages[key]
		if !ok {
			return nil
		}
		im.last, im.lastKey = p, key
	}
	return &im.last[l%pageLines]
}

// line returns line l, building its page if needed.
func (im *Image) line(l LineAddr) *LineData {
	if ld := im.find(l); ld != nil {
		return ld
	}
	p := new(page)
	im.pages[l/pageLines] = p
	im.last, im.lastKey = p, l/pageLines
	return &p[l%pageLines]
}

// Allocator is a bump allocator with per-size free lists over an Image's
// address space. It models the process heap: workload setup and transaction
// bodies allocate simulated objects from it. Allocation itself is treated as
// a constant-cost runtime service (the paper's workloads pre-allocate or
// malloc outside the measured path; FlexWatcher charges explicit costs).
type Allocator struct {
	next Addr
	free map[int][]Addr
}

// HeapBase is the first heap address. Low addresses are reserved for runtime
// metadata (status words, locks, logs) so that workload data and metadata
// never share a cache line by accident.
const HeapBase Addr = 1 << 20

// NewAllocator returns an allocator starting at HeapBase.
func NewAllocator() *Allocator {
	return &Allocator{next: HeapBase, free: make(map[int][]Addr)}
}

// Alloc returns the address of a fresh region of words words, aligned to a
// cache line. Line alignment keeps distinct objects on distinct lines, as
// the paper's 256-byte RBTree nodes are.
func (al *Allocator) Alloc(words int) Addr {
	if words <= 0 {
		panic(fmt.Sprintf("memory: Alloc(%d)", words))
	}
	rounded := (words + LineWords - 1) / LineWords * LineWords
	if fl := al.free[rounded]; len(fl) > 0 {
		a := fl[len(fl)-1]
		al.free[rounded] = fl[:len(fl)-1]
		return a
	}
	a := al.next
	al.next += Addr(rounded)
	return a
}

// Free returns a region previously obtained from Alloc with the same size.
func (al *Allocator) Free(a Addr, words int) {
	rounded := (words + LineWords - 1) / LineWords * LineWords
	al.free[rounded] = append(al.free[rounded], a)
}

// Brk returns the current top of the heap (exclusive).
func (al *Allocator) Brk() Addr { return al.next }
