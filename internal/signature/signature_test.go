package signature

import (
	"testing"
	"testing/quick"

	"flextm/internal/memory"
)

func TestNoFalseNegatives(t *testing.T) {
	f := func(lines []uint32) bool {
		s := NewDefault()
		for _, l := range lines {
			s.Insert(memory.LineAddr(l))
		}
		for _, l := range lines {
			if !s.Member(memory.LineAddr(l)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmptySignatureHasNoMembers(t *testing.T) {
	s := NewDefault()
	for l := memory.LineAddr(0); l < 10000; l++ {
		if s.Member(l) {
			t.Fatalf("empty signature claims membership of %d", l)
		}
	}
	if !s.Empty() {
		t.Fatal("Empty() = false on fresh signature")
	}
}

func TestClearRemovesAll(t *testing.T) {
	s := NewDefault()
	for l := memory.LineAddr(0); l < 100; l++ {
		s.Insert(l)
	}
	s.Clear()
	if !s.Empty() || s.PopCount() != 0 || s.Inserts() != 0 {
		t.Fatal("Clear left residue")
	}
	if s.Member(42) {
		t.Fatal("cleared signature claims membership")
	}
}

func TestFalsePositivesAreRareAtPaperScale(t *testing.T) {
	// The paper's transactions read ~100 lines; with a 2048-bit 4-banked
	// filter the false-positive rate should be well under 1%.
	s := NewDefault()
	for l := memory.LineAddr(0); l < 100; l++ {
		s.Insert(l * 3)
	}
	fp := 0
	const probes = 100000
	for i := 0; i < probes; i++ {
		l := memory.LineAddr(1<<32 + i)
		if s.Member(l) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.01 {
		t.Fatalf("false positive rate %.4f too high for 100 inserts", rate)
	}
	pred := FalsePositiveRate(DefaultConfig(), 100)
	if rate > pred*5+0.001 {
		t.Fatalf("measured FP rate %.5f far above analytic %.5f", rate, pred)
	}
}

func TestUnionIsSuperset(t *testing.T) {
	f := func(a, b []uint16) bool {
		sa, sb := NewDefault(), NewDefault()
		for _, l := range a {
			sa.Insert(memory.LineAddr(l))
		}
		for _, l := range b {
			sb.Insert(memory.LineAddr(l))
		}
		u := sa.Clone()
		u.Union(sb)
		for _, l := range a {
			if !u.Member(memory.LineAddr(l)) {
				return false
			}
		}
		for _, l := range b {
			if !u.Member(memory.LineAddr(l)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	s := NewDefault()
	s.Insert(1)
	c := s.Clone()
	c.Insert(2)
	if s.Member(2) && !anotherBankCollision(s, 2) {
		t.Fatal("mutating clone affected original")
	}
	if !c.Member(1) || !c.Member(2) {
		t.Fatal("clone lost contents")
	}
}

// anotherBankCollision reports whether l is a false positive in s, which is
// astronomically unlikely with one insert but keeps the test honest.
func anotherBankCollision(s *Sig, l memory.LineAddr) bool {
	return s.Member(l)
}

func TestBanksUseIndependentHashes(t *testing.T) {
	s := NewDefault()
	s.Insert(12345)
	// With 4 independent banks a single insert sets exactly 4 bits (unless
	// two banks map to the same global position, impossible here since banks
	// are disjoint bit ranges).
	if got := s.PopCount(); got != 4 {
		t.Fatalf("PopCount after one insert = %d, want 4", got)
	}
}

func TestFalsePositiveRateMonotonic(t *testing.T) {
	cfg := DefaultConfig()
	prev := 0.0
	for n := 0; n <= 1000; n += 100 {
		r := FalsePositiveRate(cfg, n)
		if r < prev {
			t.Fatalf("FP rate not monotonic at n=%d", n)
		}
		prev = r
	}
	if FalsePositiveRate(cfg, 0) != 0 {
		t.Fatal("FP rate with 0 inserts should be 0")
	}
}

func TestWiderSignatureFewerFalsePositives(t *testing.T) {
	narrow := FalsePositiveRate(Config{Bits: 256, Banks: 4}, 200)
	wide := FalsePositiveRate(Config{Bits: 4096, Banks: 4}, 200)
	if wide >= narrow {
		t.Fatalf("wide FP %.4f >= narrow FP %.4f", wide, narrow)
	}
}

func TestReadHashDeterministic(t *testing.T) {
	s := NewDefault()
	if s.ReadHash(77) != s.ReadHash(77) {
		t.Fatal("ReadHash not deterministic")
	}
	if s.ReadHash(77) == s.ReadHash(78) {
		t.Fatal("ReadHash collides on adjacent lines (suspicious)")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Bits: 0, Banks: 4},
		{Bits: 2048, Banks: 0},
		{Bits: 100, Banks: 4},    // not a multiple of 64*banks
		{Bits: 64 * 3, Banks: 1}, // bank size not a power of two
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestCopyFromOverwrites(t *testing.T) {
	a, b := NewDefault(), NewDefault()
	a.Insert(1)
	b.Insert(2)
	a.CopyFrom(b)
	if !a.Member(2) {
		t.Fatal("CopyFrom did not copy contents")
	}
	if a.Member(1) {
		t.Fatal("CopyFrom did not overwrite prior contents")
	}
}

func TestIntersectsSoundness(t *testing.T) {
	// Property: disjoint inserted sets may report Intersects (false
	// positive), but common members must always report true, and a false
	// result must imply genuinely disjoint sets.
	f := func(a, b []uint16) bool {
		sa, sb := NewDefault(), NewDefault()
		inA := map[memory.LineAddr]bool{}
		for _, l := range a {
			sa.Insert(memory.LineAddr(l))
			inA[memory.LineAddr(l)] = true
		}
		common := false
		for _, l := range b {
			sb.Insert(memory.LineAddr(l))
			if inA[memory.LineAddr(l)] {
				common = true
			}
		}
		got := sa.Intersects(sb)
		if common && !got {
			return false // missed a real intersection: unsound
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectsDisjointUsuallyFalse(t *testing.T) {
	sa, sb := NewDefault(), NewDefault()
	for i := 0; i < 10; i++ {
		sa.Insert(memory.LineAddr(i))
		sb.Insert(memory.LineAddr(1000 + i))
	}
	if sa.Intersects(sb) {
		t.Skip("rare aliasing between small disjoint sets; acceptable")
	}
}

func BenchmarkInsert(b *testing.B) {
	s := NewDefault()
	for i := 0; i < b.N; i++ {
		s.Insert(memory.LineAddr(i))
	}
}

func BenchmarkMember(b *testing.B) {
	s := NewDefault()
	for i := 0; i < 100; i++ {
		s.Insert(memory.LineAddr(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Member(memory.LineAddr(i % 200))
	}
}

// BenchmarkMemberKey prices a probe round's per-responder test: one key,
// then a read and a write signature tested with it.
func BenchmarkMemberKey(b *testing.B) {
	rs, ws := NewDefault(), NewDefault()
	for i := 0; i < 100; i++ {
		rs.Insert(memory.LineAddr(i))
		ws.Insert(memory.LineAddr(i + 50))
	}
	var k Key
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Reset(rs.cfg, memory.LineAddr(i%200))
		rs.MemberKey(&k)
		ws.MemberKey(&k)
	}
}

func BenchmarkIntersects(b *testing.B) {
	sa, sb := NewDefault(), NewDefault()
	for i := 0; i < 50; i++ {
		sa.Insert(memory.LineAddr(i))
		sb.Insert(memory.LineAddr(i + 1000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sa.Intersects(sb)
	}
}
