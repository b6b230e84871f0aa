package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"flextm/internal/memory"
)

// refTagCache is the reference L2 model: every set built up front as its
// own slice, with an explicit valid bit. TagCache must be
// indistinguishable from it.
type refTagCache struct {
	sets  [][]refTagEntry
	mask  uint64
	clock uint64
}

type refTagEntry struct {
	tag   memory.LineAddr
	valid bool
	lru   uint64
}

func newRefTagCache(sets, ways int) *refTagCache {
	s := make([][]refTagEntry, sets)
	for i := range s {
		s[i] = make([]refTagEntry, ways)
	}
	return &refTagCache{sets: s, mask: uint64(sets - 1)}
}

func (t *refTagCache) Touch(l memory.LineAddr) (hit bool, evicted memory.LineAddr, hasEvicted bool) {
	t.clock++
	set := t.sets[uint64(l)&t.mask]
	for i := range set {
		if set[i].valid && set[i].tag == l {
			set[i].lru = t.clock
			return true, 0, false
		}
	}
	for i := range set {
		if !set[i].valid {
			set[i] = refTagEntry{tag: l, valid: true, lru: t.clock}
			return false, 0, false
		}
	}
	vi := 0
	for i := range set {
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	old := set[vi].tag
	set[vi] = refTagEntry{tag: l, valid: true, lru: t.clock}
	return false, old, true
}

// TestTagCacheMatchesReference drives TagCache and the reference model
// with the same seeded line streams and compares every Touch. Most lines
// come from a pool of 2*ways+1 tags on each of a few sets, so sets fill up
// and evict; the rest are scattered, so untouched sets keep being built
// (line 0 included, whose tag equals an invalid way's zero tag).
func TestTagCacheMatchesReference(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{{1, 1}, {2, 2}, {4, 8}, {16384, 8}} {
		t.Run(fmt.Sprintf("%dx%d", g.sets, g.ways), func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				tc, ref := NewTagCache(g.sets, g.ways), newRefTagCache(g.sets, g.ways)
				hot := min(g.sets, 5)
				evictions := 0
				for step := 0; step < 5000; step++ {
					var l memory.LineAddr
					if rng.Intn(8) == 0 {
						l = memory.LineAddr(rng.Int63n(1 << 40))
					} else {
						set := rng.Intn(hot) * (g.sets / hot)
						l = memory.LineAddr(rng.Intn(2*g.ways+1)*g.sets + set)
					}
					hit, ev, has := tc.Touch(l)
					rhit, rev, rhas := ref.Touch(l)
					if hit != rhit || ev != rev || has != rhas {
						t.Fatalf("seed %d step %d Touch(%d) = (%v, %d, %v), reference (%v, %d, %v)",
							seed, step, l, hit, ev, has, rhit, rev, rhas)
					}
					if has {
						evictions++
					}
				}
				if evictions == 0 {
					t.Fatalf("seed %d: stream forced no evictions", seed)
				}
			}
		})
	}
}

// BenchmarkTagCacheTouch prices one L2 access on the paper's 16,384x8
// geometry: a hit, and a miss that evicts because ways+1 lines cycle
// through one set. fill prices building a tag cache and cold-filling all
// of its sets, one line each.
func BenchmarkTagCacheTouch(b *testing.B) {
	const sets, ways = 16384, 8
	b.Run("hit", func(b *testing.B) {
		tc := NewTagCache(sets, ways)
		tc.Touch(5)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if hit, _, _ := tc.Touch(5); !hit {
				b.Fatal("miss on a resident line")
			}
		}
	})
	b.Run("evict", func(b *testing.B) {
		tc := NewTagCache(sets, ways)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tc.Touch(memory.LineAddr(i % (ways + 1) * sets))
		}
	})
	b.Run("fill", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tc := NewTagCache(sets, ways)
			for s := 0; s < sets; s++ {
				tc.Touch(memory.LineAddr(s))
			}
		}
	})
}
