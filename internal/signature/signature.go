// Package signature implements the Bloom-filter access signatures used by
// FlexTM to summarize transactional read and write sets (Section 3.1 of the
// paper, after Bulk and LogTM-SE).
//
// The hardware configuration matches the paper's evaluation setup: a
// 2048-bit filter partitioned into 4 banks, each indexed by an independent
// H3-class hash of the line address. Signatures are conservative: Member may
// report false positives but never false negatives, so a miss proves the
// address was not inserted.
package signature

import (
	"fmt"
	"math"
	"math/bits"

	"flextm/internal/memory"
)

// Default hardware parameters from Table 2 / Section 7.1 of the paper.
const (
	// DefaultBits is the total signature width in bits.
	DefaultBits = 2048
	// DefaultBanks is the number of independently hashed banks.
	DefaultBanks = 4
	// MaxBits is the widest filter Validate accepts: a filter bit must fit
	// the uint16 bit lists of Slices.
	MaxBits = 1 << 16
)

// Config describes a signature's geometry; Validate says which are valid.
type Config struct {
	Bits  int // total width
	Banks int // number of banks (hash functions)
}

// Validate reports whether cfg is a geometry a signature can have: 1 to 8
// banks, because each bank hashes with its own salt; banks whose width is
// a power of two of at least 64 bits; and at most MaxBits bits in all.
func (cfg Config) Validate() error {
	if cfg.Banks < 1 || cfg.Banks > len(bankSalts) {
		return fmt.Errorf("signature: %d banks, want 1 to %d", cfg.Banks, len(bankSalts))
	}
	if cfg.Bits < 1 || cfg.Bits > MaxBits {
		return fmt.Errorf("signature: %d bits, want 1 to %d", cfg.Bits, MaxBits)
	}
	if bank := cfg.Bits / cfg.Banks; bank*cfg.Banks != cfg.Bits || bank < 64 || bank&(bank-1) != 0 {
		return fmt.Errorf("signature: %d bits in %d banks: a bank must be a power of two of at least 64 bits", cfg.Bits, cfg.Banks)
	}
	return nil
}

// mustShift returns the bank shift of cfg, panicking on a geometry that
// Validate rejects.
func (cfg Config) mustShift() uint {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return cfg.bankShift()
}

// bankShift is log2 of the bank width. Bits is Banks times a power of two,
// so it is the difference of their trailing zeros, without a division.
func (cfg Config) bankShift() uint {
	return uint(bits.TrailingZeros(uint(cfg.Bits)) - bits.TrailingZeros(uint(cfg.Banks)))
}

// DefaultConfig returns the paper's 2048-bit, 4-banked geometry.
func DefaultConfig() Config { return Config{Bits: DefaultBits, Banks: DefaultBanks} }

// Sig is a Bloom-filter signature over cache-line addresses. The zero value
// is not usable; call New.
type Sig struct {
	cfg     Config
	shift   uint     // log2 of the bank width
	words   []uint64 // Bits/64 words, bank-major
	inserts int
	// audit, when non-nil, shadows the inserted set precisely so membership
	// tests can be split into true hits and Bloom false positives (the
	// telemetry layer's empirical FP accounting). Hardware has no such
	// shadow; it exists purely for measurement and is off by default.
	audit *audit
}

// audit is a signature's measurement state. It sits behind one pointer so
// that a Sig stays 64 bytes.
type audit struct {
	set map[memory.LineAddr]struct{}
	// fpr memoizes PredictedFPR: fpr[n] is FalsePositiveRate(cfg, n). It
	// depends on the geometry only, so it survives Clear; every signature
	// New returns, Clone's and Rehash's included, starts its own.
	fpr []float64
}

// New returns an empty signature with the given geometry. It panics on a
// geometry that Validate rejects.
func New(cfg Config) *Sig {
	return &Sig{cfg: cfg, shift: cfg.mustShift(), words: make([]uint64, cfg.Bits/64)}
}

// NewDefault returns an empty signature with the paper's geometry.
func NewDefault() *Sig { return New(DefaultConfig()) }

// bankSalts holds one salt per bank, so a geometry has at most
// len(bankSalts) banks.
var bankSalts = [...]uint64{
	0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0x27D4EB2F165667C5,
	0x85EBCA77C2B2AE63, 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53, 0x2545F4914F6CDD1D,
}

// hash mixes a line address with a bank's salt. The multiply-xorshift
// construction approximates the H3 hash family used in hardware signature
// studies; what matters for fidelity is independence across banks.
func hash(l memory.LineAddr, salt uint64) uint64 {
	x := uint64(l) * salt
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 29
	return x
}

// bankBit is line l's filter bit in bank b, whose salt is salt, in a
// geometry whose banks are 1<<shift bits wide: word bit>>6, position
// bit&63.
func bankBit(l memory.LineAddr, b int, salt uint64, shift uint) uint {
	return uint(b)<<shift | uint(hash(l, salt)&(1<<shift-1))
}

// Key is one line's bit positions under one Config: the filter bit of the
// line in each bank, as an index into the whole filter (word bit>>6,
// position bit&63). A coherence probe round tests one line against many
// signatures of one geometry; a shared Key hashes the line once per bank
// for all of them.
type Key struct {
	cfg Config
	bit [len(bankSalts)]uint32
}

// Reset points k at line l under cfg, a valid geometry.
func (k *Key) Reset(cfg Config, l memory.LineAddr) {
	k.cfg = cfg
	shift := cfg.bankShift()
	for b, salt := range bankSalts[:cfg.Banks] {
		k.bit[b] = uint32(bankBit(l, b, salt, shift))
	}
}

// MemberKey is Member of k's line. The key's geometry must match.
func (s *Sig) MemberKey(k *Key) bool {
	if k.cfg != s.cfg {
		panic("signature: MemberKey with a key of another geometry")
	}
	for _, i := range k.bit[:s.cfg.Banks] {
		if s.words[i>>6]&(1<<(i&63)) == 0 {
			return false
		}
	}
	return true
}

// Insert adds a line address to the signature (the paper's "insert [%r],Sig"
// instruction, Table 4a).
func (s *Sig) Insert(l memory.LineAddr) {
	for b, salt := range bankSalts[:s.cfg.Banks] {
		i := bankBit(l, b, salt, s.shift)
		s.words[i>>6] |= 1 << (i & 63)
	}
	s.noteInsert(l)
}

// noteInsert counts an insert of l and shadows it in audit mode.
func (s *Sig) noteInsert(l memory.LineAddr) {
	s.inserts++
	if s.audit != nil {
		s.audit.set[l] = struct{}{}
	}
}

// Member reports whether l may have been inserted (the paper's "member"
// instruction). False positives are possible; false negatives are not.
func (s *Sig) Member(l memory.LineAddr) bool {
	for b, salt := range bankSalts[:s.cfg.Banks] {
		i := bankBit(l, b, salt, s.shift)
		if s.words[i>>6]&(1<<(i&63)) == 0 {
			return false
		}
	}
	return true
}

// Clear zeroes the signature (the paper's "clear" instruction; in hardware a
// flash clear).
func (s *Sig) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
	s.inserts = 0
	if s.audit != nil {
		clear(s.audit.set)
	}
}

// Union ORs other into s. The OS uses this to build the summary signatures
// (RSsig/WSsig) installed at the directory when a transaction is suspended
// (Section 5). Geometries must match.
func (s *Sig) Union(other *Sig) {
	if s.cfg != other.cfg {
		panic("signature: Union of mismatched geometries")
	}
	for i, w := range other.words {
		s.words[i] |= w
	}
	s.inserts += other.inserts
	if s.audit != nil && other.audit != nil {
		for l := range other.audit.set {
			s.audit.set[l] = struct{}{}
		}
	}
}

// CopyFrom overwrites s with other's contents (used when the OS restores a
// rescheduled transaction's signatures to the core, Section 5).
func (s *Sig) CopyFrom(other *Sig) {
	if s.cfg != other.cfg {
		panic("signature: CopyFrom mismatched geometries")
	}
	copy(s.words, other.words)
	s.inserts = other.inserts
	if s.audit != nil {
		clear(s.audit.set)
		if other.audit != nil {
			for l := range other.audit.set {
				s.audit.set[l] = struct{}{}
			}
		}
	}
}

// Clone returns an independent copy of s (audit mode included).
func (s *Sig) Clone() *Sig {
	n := New(s.cfg)
	if s.audit != nil {
		n.EnableAudit()
	}
	n.CopyFrom(s)
	return n
}

// Rehash returns a signature with geometry cfg holding exactly the lines in
// s's precise shadow set — the software half of a live widen/rehash: the
// runtime reads the shadow set (measurement state the hardware models as a
// victim structure) and re-inserts every member into the new filter, so the
// result has no false negatives even mid-transaction. It panics when audit
// is off, because without ground truth a narrower-to-wider rehash could
// silently drop members (the Bloom bits alone cannot be enumerated).
func (s *Sig) Rehash(cfg Config) *Sig {
	if s.audit == nil {
		panic("signature: Rehash requires audit mode (no precise member set)")
	}
	n := New(cfg)
	n.EnableAudit()
	for l := range s.audit.set {
		n.Insert(l)
	}
	return n
}

// EnableAudit switches on the precise shadow set. Only lines inserted after
// the call are shadowed, so callers should enable it while the signature is
// empty (FlexTM enables it at telemetry attach, before any transaction).
func (s *Sig) EnableAudit() {
	if s.audit == nil {
		s.audit = &audit{set: make(map[memory.LineAddr]struct{})}
	}
}

// AuditEnabled reports whether the precise shadow set is maintained.
func (s *Sig) AuditEnabled() bool { return s.audit != nil }

// Inserted reports ground truth: whether l was actually inserted since the
// last Clear. Only meaningful with audit enabled; a true Member result with
// a false Inserted result is a Bloom false positive.
func (s *Sig) Inserted(l memory.LineAddr) bool {
	if s.audit == nil {
		return false
	}
	_, ok := s.audit.set[l]
	return ok
}

// Distinct returns the number of distinct lines inserted since the last
// Clear when audit is enabled; otherwise it falls back to the Insert-call
// count (an upper bound).
func (s *Sig) Distinct() int {
	if s.audit != nil {
		return len(s.audit.set)
	}
	return s.inserts
}

// PredictedFPR returns the analytic false-positive estimate for the
// signature's current occupancy (FalsePositiveRate at Distinct()
// insertions), bit for bit. Audit-mode accounting asks once per negative
// membership test, so with audit on the values are memoized by occupancy;
// the table holds one float per line the shadow set has ever held at once.
func (s *Sig) PredictedFPR() float64 {
	n := s.Distinct()
	if s.audit == nil {
		return FalsePositiveRate(s.cfg, n)
	}
	a := s.audit
	for len(a.fpr) <= n {
		a.fpr = append(a.fpr, FalsePositiveRate(s.cfg, len(a.fpr)))
	}
	return a.fpr[n]
}

// Empty reports whether no address has been inserted since the last Clear.
func (s *Sig) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// PopCount returns the number of set bits (occupancy).
func (s *Sig) PopCount() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Inserts returns the number of Insert calls since the last Clear
// (an upper bound on distinct lines inserted).
func (s *Sig) Inserts() int { return s.inserts }

// ReadHash returns the concatenated per-bank hash of l (the paper's
// "read-hash" instruction), useful to software that wants to reuse the
// hardware hash, e.g. for overflow-table indexing.
func (s *Sig) ReadHash(l memory.LineAddr) uint64 {
	var h uint64
	for b, salt := range bankSalts[:s.cfg.Banks] {
		h = h<<16 | uint64(bankBit(l, b, salt, s.shift)&(1<<s.shift-1))
	}
	return h
}

// FalsePositiveRate estimates the probability that Member returns true for
// an address never inserted, given n distinct insertions, using the standard
// partitioned-Bloom-filter formula. Used by the signature-width ablation.
func FalsePositiveRate(cfg Config, n int) float64 {
	bankBits := float64(cfg.Bits / cfg.Banks)
	p := 1 - math.Pow(1-1/bankBits, float64(n))
	return math.Pow(p, float64(cfg.Banks))
}

// Intersects reports whether the two signatures may share an inserted
// address. A false result is definitive: inserting the same line sets the
// same bit positions in both filters, so a zero bitwise AND proves the
// inserted sets are disjoint. A true result may be a false positive.
func (s *Sig) Intersects(other *Sig) bool {
	if s.cfg != other.cfg {
		panic("signature: Intersects with mismatched geometries")
	}
	for i, w := range s.words {
		if w&other.words[i] != 0 {
			return true
		}
	}
	return false
}
