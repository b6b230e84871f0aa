package signature

import (
	"math/rand"
	"testing"
	"testing/quick"

	"flextm/internal/memory"
)

// validGeometries is a spread of legal configs: New requires Bits to be a
// multiple of 64*Banks and each bank to be a power-of-two bits wide.
var validGeometries = []Config{
	{Bits: 64, Banks: 1},
	{Bits: 128, Banks: 2},
	{Bits: 256, Banks: 2},
	{Bits: 256, Banks: 4},
	{Bits: 512, Banks: 8},
	{Bits: 1024, Banks: 4},
	{Bits: DefaultBits, Banks: DefaultBanks},
}

func TestSignatureNoFalseNegatives(t *testing.T) {
	// Property: for any inserted set under any valid geometry, Member must
	// hit every inserted line. Signatures are conservative summaries; a
	// false negative would let a conflicting access slip past CST
	// construction entirely, which is a correctness (not precision) bug.
	f := func(geoPick uint8, tags []uint32) bool {
		cfg := validGeometries[int(geoPick)%len(validGeometries)]
		s := New(cfg)
		inserted := map[memory.LineAddr]bool{}
		for _, tg := range tags {
			l := memory.LineAddr(tg)
			s.Insert(l)
			inserted[l] = true
			// Membership must hold immediately after the insert...
			if !s.Member(l) {
				return false
			}
		}
		// ...and still hold after every subsequent insert (bits only OR in).
		for l := range inserted {
			if !s.Member(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSignatureUnionNoFalseNegatives(t *testing.T) {
	// Property: Union (the OS summary-signature path, Section 5) preserves
	// membership of everything inserted into either operand.
	f := func(geoPick uint8, a, b []uint32) bool {
		cfg := validGeometries[int(geoPick)%len(validGeometries)]
		sa, sb := New(cfg), New(cfg)
		for _, tg := range a {
			sa.Insert(memory.LineAddr(tg))
		}
		for _, tg := range b {
			sb.Insert(memory.LineAddr(tg))
		}
		sa.Union(sb)
		for _, tg := range append(append([]uint32{}, a...), b...) {
			if !sa.Member(memory.LineAddr(tg)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSignatureFalsePositiveRateWithinBound(t *testing.T) {
	// The -fig sig ablation plots FalsePositiveRate as the analytic model;
	// this test pins the implementation to it: the observed FP rate over a
	// large probe set must stay within 2x of the model (plus a small
	// absolute epsilon so near-zero rates don't fail on a handful of
	// unlucky probes). A rate far above the bound means the H3 mixing is
	// broken or banks are correlated; far below would mean the model (and
	// the paper-figure curve built from it) no longer describes the
	// hardware we simulate.
	const probes = 20000
	cases := []struct {
		name string
		cfg  Config
		n    int
	}{
		{"default/n=8", DefaultConfig(), 8},
		{"default/n=32", DefaultConfig(), 32},
		{"default/n=128", DefaultConfig(), 128},
		{"256x2/n=32", Config{Bits: 256, Banks: 2}, 32},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(0x5197A7))
			s := New(tc.cfg)
			s.EnableAudit()
			for s.Distinct() < tc.n {
				s.Insert(memory.LineAddr(rng.Uint64() >> 1))
			}
			fp, tried := 0, 0
			for tried < probes {
				l := memory.LineAddr(rng.Uint64() >> 1)
				if s.Inserted(l) {
					continue // probe only genuine non-members
				}
				tried++
				if s.Member(l) {
					fp++
				}
			}
			got := float64(fp) / float64(tried)
			want := FalsePositiveRate(tc.cfg, tc.n)
			if bound := 2*want + 0.002; got > bound {
				t.Fatalf("observed FP rate %.5f (%d/%d) exceeds bound %.5f (2x analytic %.5f)",
					got, fp, tried, bound, want)
			}
			// Sanity in the other direction for the dense cases: a filter
			// whose Member never false-positives at meaningful occupancy
			// isn't a Bloom filter (probably hashing into too few bits).
			if want > 0.01 && got < want/4 {
				t.Fatalf("observed FP rate %.5f implausibly below analytic %.5f", got, want)
			}
		})
	}
}

func TestSignatureIntersectsDisjointIsDefinitive(t *testing.T) {
	// Property: Intersects returning false proves the inserted sets are
	// disjoint — shared lines set identical bit positions in both filters.
	f := func(a, b []uint32) bool {
		sa, sb := New(DefaultConfig()), New(DefaultConfig())
		as := map[memory.LineAddr]bool{}
		for _, tg := range a {
			l := memory.LineAddr(tg)
			sa.Insert(l)
			as[l] = true
		}
		shared := false
		for _, tg := range b {
			l := memory.LineAddr(tg)
			sb.Insert(l)
			if as[l] {
				shared = true
			}
		}
		if shared && !sa.Intersects(sb) {
			return false // a real overlap must be reported
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMemberKeyMatchesMember(t *testing.T) {
	// Property: MemberKey answers exactly what Member answers, for a
	// geometry the key holds and for one too wide to hold (Member fallback).
	geos := append(validGeometries, Config{Bits: 1024, Banks: 16})
	f := func(geoPick uint8, inserted, probed []uint32) bool {
		cfg := geos[int(geoPick)%len(geos)]
		s := New(cfg)
		for _, tg := range inserted {
			s.Insert(memory.LineAddr(tg))
		}
		var k Key
		for _, tg := range append(probed, inserted...) {
			l := memory.LineAddr(tg)
			k.Reset(cfg, l)
			if s.MemberKey(&k) != s.Member(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMemberKeyMismatchedGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MemberKey with another geometry's key did not panic")
		}
	}()
	var k Key
	k.Reset(Config{Bits: 1024, Banks: 4}, 7)
	NewDefault().MemberKey(&k)
}
