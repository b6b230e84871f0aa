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
)

// Config describes a signature's geometry.
type Config struct {
	Bits  int // total width; must be a multiple of 64*Banks
	Banks int // number of banks (hash functions)
}

// DefaultConfig returns the paper's 2048-bit, 4-banked geometry.
func DefaultConfig() Config { return Config{Bits: DefaultBits, Banks: DefaultBanks} }

// Sig is a Bloom-filter signature over cache-line addresses. The zero value
// is not usable; call New.
type Sig struct {
	cfg      Config
	bankBits int
	words    []uint64 // Bits/64 words, bank-major
	inserts  int
	// audit, when non-nil, shadows the inserted set precisely so membership
	// tests can be split into true hits and Bloom false positives (the
	// telemetry layer's empirical FP accounting). Hardware has no such
	// shadow; it exists purely for measurement and is off by default.
	audit map[memory.LineAddr]struct{}
}

// New returns an empty signature with the given geometry.
func New(cfg Config) *Sig {
	if cfg.Banks <= 0 || cfg.Bits <= 0 || cfg.Bits%(64*cfg.Banks) != 0 {
		panic("signature: invalid config")
	}
	bankBits := cfg.Bits / cfg.Banks
	if bankBits&(bankBits-1) != 0 {
		panic("signature: bank size must be a power of two")
	}
	return &Sig{cfg: cfg, bankBits: bankBits, words: make([]uint64, cfg.Bits/64)}
}

// NewDefault returns an empty signature with the paper's geometry.
func NewDefault() *Sig { return New(DefaultConfig()) }

// h3 mixes a line address with a per-bank constant. The multiply-xorshift
// construction approximates the H3 hash family used in hardware signature
// studies; what matters for fidelity is independence across banks.
var bankSalts = [...]uint64{
	0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0x27D4EB2F165667C5,
	0x85EBCA77C2B2AE63, 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53, 0x2545F4914F6CDD1D,
}

func h3(l memory.LineAddr, bank int) uint64 {
	x := uint64(l) * bankSalts[bank%len(bankSalts)]
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 29
	return x
}

func (s *Sig) bit(l memory.LineAddr, bank int) (word, mask int) {
	return bankBit(s.bankBits, l, bank)
}

// bankBit returns the word index and bit position of l's bit in bank.
func bankBit(bankBits int, l memory.LineAddr, bank int) (word, mask int) {
	h := h3(l, bank) & uint64(bankBits-1)
	idx := bank*bankBits + int(h)
	return idx / 64, idx % 64
}

// keyBanks is the number of banks a Key can hold; MemberKey tests a wider
// geometry through Member.
const keyBanks = len(bankSalts)

// Key is one line's bit positions under one Config: the word index and
// mask of its bit in each bank. A coherence probe round tests one line
// against many signatures of one geometry; a shared Key hashes the line
// once per bank for all of them.
type Key struct {
	cfg  Config
	line memory.LineAddr
	word [keyBanks]int
	mask [keyBanks]uint64
}

// Reset points k at line l under cfg.
func (k *Key) Reset(cfg Config, l memory.LineAddr) {
	k.cfg, k.line = cfg, l
	if cfg.Banks > keyBanks {
		return
	}
	bankBits := cfg.Bits / cfg.Banks
	for b := 0; b < cfg.Banks; b++ {
		w, m := bankBit(bankBits, l, b)
		k.word[b], k.mask[b] = w, 1<<m
	}
}

// MemberKey is Member of k's line. The key's geometry must match.
func (s *Sig) MemberKey(k *Key) bool {
	if k.cfg != s.cfg {
		panic("signature: MemberKey with a key of another geometry")
	}
	if s.cfg.Banks > keyBanks {
		return s.Member(k.line)
	}
	for b := 0; b < s.cfg.Banks; b++ {
		if s.words[k.word[b]]&k.mask[b] == 0 {
			return false
		}
	}
	return true
}

// Insert adds a line address to the signature (the paper's "insert [%r],Sig"
// instruction, Table 4a).
func (s *Sig) Insert(l memory.LineAddr) {
	for b := 0; b < s.cfg.Banks; b++ {
		w, m := s.bit(l, b)
		s.words[w] |= 1 << m
	}
	s.inserts++
	if s.audit != nil {
		s.audit[l] = struct{}{}
	}
}

// Member reports whether l may have been inserted (the paper's "member"
// instruction). False positives are possible; false negatives are not.
func (s *Sig) Member(l memory.LineAddr) bool {
	for b := 0; b < s.cfg.Banks; b++ {
		w, m := s.bit(l, b)
		if s.words[w]&(1<<m) == 0 {
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
		clear(s.audit)
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
		for l := range other.audit {
			s.audit[l] = struct{}{}
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
		clear(s.audit)
		for l := range other.audit {
			s.audit[l] = struct{}{}
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
	for l := range s.audit {
		n.Insert(l)
	}
	return n
}

// EnableAudit switches on the precise shadow set. Only lines inserted after
// the call are shadowed, so callers should enable it while the signature is
// empty (FlexTM enables it at telemetry attach, before any transaction).
func (s *Sig) EnableAudit() {
	if s.audit == nil {
		s.audit = make(map[memory.LineAddr]struct{})
	}
}

// AuditEnabled reports whether the precise shadow set is maintained.
func (s *Sig) AuditEnabled() bool { return s.audit != nil }

// Inserted reports ground truth: whether l was actually inserted since the
// last Clear. Only meaningful with audit enabled; a true Member result with
// a false Inserted result is a Bloom false positive.
func (s *Sig) Inserted(l memory.LineAddr) bool {
	_, ok := s.audit[l]
	return ok
}

// Distinct returns the number of distinct lines inserted since the last
// Clear when audit is enabled; otherwise it falls back to the Insert-call
// count (an upper bound).
func (s *Sig) Distinct() int {
	if s.audit != nil {
		return len(s.audit)
	}
	return s.inserts
}

// PredictedFPR returns the analytic false-positive estimate for the
// signature's current occupancy (FalsePositiveRate at Distinct()
// insertions).
func (s *Sig) PredictedFPR() float64 {
	return FalsePositiveRate(s.cfg, s.Distinct())
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
	for b := 0; b < s.cfg.Banks; b++ {
		h = h<<16 | (h3(l, b) & uint64(s.bankBits-1))
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
