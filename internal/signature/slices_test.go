package signature

import (
	"fmt"
	"math/rand"
	"testing"

	"flextm/internal/memory"
)

// TestSlicesMatchMember drives signatures through a Slices index with
// random inserts, clears and copies, and checks after every step that Hits
// answers Member for every slot, and that each filter bit's mask is the
// set of slots whose signature has it. The geometries cover the paper's,
// the most banks a geometry can have, and the widest filter; the slot counts cover 16-, 32- and 64-bit lanes; the transactions
// overflow the bit list.
func TestSlicesMatchMember(t *testing.T) {
	type tc struct {
		cfg   Config
		slots int
	}
	var cases []tc
	for _, cfg := range []Config{DefaultConfig(), {Bits: 256, Banks: 4}, {Bits: 512, Banks: 8}, {Bits: MaxBits, Banks: 2}} {
		cases = append(cases, tc{cfg, 5})
	}
	cases = append(cases, tc{Config{Bits: 256, Banks: 4}, 20}, tc{Config{Bits: 256, Banks: 4}, 64})
	for _, c := range cases {
		cfg, slots := c.cfg, c.slots
		t.Run(fmt.Sprintf("%dx%d/%d", cfg.Bits, cfg.Banks, slots), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			x := NewSlices(cfg, slots)
			sigs := make([]*Sig, slots)
			for i := range sigs {
				sigs[i] = New(cfg)
			}
			var k Key
			for step := 0; step < 3000; step++ {
				slot := rng.Intn(slots)
				switch p := rng.Intn(100); {
				case p < 85:
					l := memory.LineAddr(rng.Intn(400))
					x.Insert(slot, sigs[slot], l)
					if !sigs[slot].Member(l) {
						t.Fatalf("step %d: inserted line %d is not a member", step, l)
					}
				case p < 95:
					x.Clear(slot, sigs[slot])
					if !sigs[slot].Empty() || sigs[slot].Inserts() != 0 {
						t.Fatalf("step %d: Clear left slot %d's signature non-empty", step, slot)
					}
				default:
					x.Copy(slot, sigs[slot], sigs[rng.Intn(slots)].Clone())
				}
				line := memory.LineAddr(rng.Intn(400))
				k.Reset(cfg, line)
				hits := x.Hits(&k)
				for i, s := range sigs {
					if got, want := hits&(1<<i) != 0, s.Member(line); got != want || hits>>slots != 0 {
						t.Fatalf("step %d: Hits says slot %d holds line %d: %v, Member %v", step, i, line, got, want)
					}
				}
				if step%100 == 0 {
					for b := 0; b < cfg.Bits; b++ {
						var want uint64
						for i, s := range sigs {
							if s.words[b>>6]&(1<<(b&63)) != 0 {
								want |= 1 << i
							}
						}
						if x.Mask(b) != want {
							t.Fatalf("step %d: bit %d mask %#x, want %#x", step, b, x.Mask(b), want)
						}
					}
				}
			}
		})
	}
}

// BenchmarkSlicesInsertClear prices a one-line transaction's signature
// work with the index kept: hash and insert the line, clear the signature.
func BenchmarkSlicesInsertClear(b *testing.B) {
	s, x := NewDefault(), NewSlices(DefaultConfig(), 16)
	for i := 0; i < b.N; i++ {
		x.Insert(3, s, memory.LineAddr(200+i&1023))
		x.Clear(3, s)
	}
}

// BenchmarkSlicesHits prices a probe round's signature test of every core.
func BenchmarkSlicesHits(b *testing.B) {
	x := NewSlices(DefaultConfig(), 16)
	sigs := make([]*Sig, 16)
	var k Key
	for i := range sigs {
		sigs[i] = NewDefault()
		for l := 0; l < 20; l++ {
			x.Insert(i, sigs[i], memory.LineAddr(1000*i+l))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Reset(DefaultConfig(), memory.LineAddr(i&4095))
		x.Hits(&k)
	}
}
