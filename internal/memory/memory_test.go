package memory

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddrLineOffset(t *testing.T) {
	cases := []struct {
		a    Addr
		line LineAddr
		off  int
	}{
		{0, 0, 0},
		{7, 0, 7},
		{8, 1, 0},
		{65, 8, 1},
	}
	for _, c := range cases {
		if c.a.Line() != c.line || c.a.Offset() != c.off {
			t.Errorf("Addr(%d): line=%d off=%d, want %d/%d",
				c.a, c.a.Line(), c.a.Offset(), c.line, c.off)
		}
		if c.line.WordOf(c.off) != c.a {
			t.Errorf("WordOf round trip failed for %d", c.a)
		}
	}
}

func TestImageReadWrite(t *testing.T) {
	im := NewImage()
	if v := im.ReadWord(123); v != 0 {
		t.Fatalf("unwritten word = %d, want 0", v)
	}
	im.WriteWord(123, 0xDEAD)
	if v := im.ReadWord(123); v != 0xDEAD {
		t.Fatalf("word = %#x, want 0xDEAD", v)
	}
	// Neighboring word in the same line is untouched.
	if v := im.ReadWord(122); v != 0 {
		t.Fatalf("neighbor = %d, want 0", v)
	}
}

func TestImageLineOps(t *testing.T) {
	im := NewImage()
	var src LineData
	for i := range src {
		src[i] = uint64(i) * 11
	}
	im.WriteLine(5, &src)
	var dst LineData
	im.ReadLine(5, &dst)
	if dst != src {
		t.Fatalf("line round trip: got %v want %v", dst, src)
	}
	// Word view sees line writes.
	if v := im.ReadWord(LineAddr(5).WordOf(3)); v != 33 {
		t.Fatalf("word view = %d, want 33", v)
	}
	var zero LineData
	im.ReadLine(99, &dst)
	if dst != zero {
		t.Fatalf("unwritten line not zero: %v", dst)
	}
}

func TestImageWordLineConsistency(t *testing.T) {
	f := func(seed uint64, vals [LineWords]uint64) bool {
		im := NewImage()
		l := LineAddr(seed % 1000)
		for i, v := range vals {
			im.WriteWord(l.WordOf(i), v)
		}
		var got LineData
		im.ReadLine(l, &got)
		return got == LineData(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllocatorDistinctLineAligned(t *testing.T) {
	al := NewAllocator()
	seen := map[Addr]bool{}
	for i := 0; i < 100; i++ {
		a := al.Alloc(3)
		if a%LineWords != 0 {
			t.Fatalf("allocation %d not line aligned", a)
		}
		if seen[a] {
			t.Fatalf("address %d returned twice", a)
		}
		seen[a] = true
	}
}

func TestAllocatorReuseAfterFree(t *testing.T) {
	al := NewAllocator()
	a := al.Alloc(16)
	al.Free(a, 16)
	b := al.Alloc(16)
	if a != b {
		t.Fatalf("freed block not reused: %d vs %d", a, b)
	}
}

func TestAllocatorDisjointRegions(t *testing.T) {
	f := func(sizes []uint8) bool {
		al := NewAllocator()
		type region struct{ a, end Addr }
		var regions []region
		for _, s := range sizes {
			w := int(s%64) + 1
			a := al.Alloc(w)
			for _, r := range regions {
				if a < r.end && r.a < a+Addr(w) {
					return false
				}
			}
			regions = append(regions, region{a, a + Addr(w)})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Alloc(0) did not panic")
		}
	}()
	NewAllocator().Alloc(0)
}

// TestImageMatchesMap drives an Image and a map of words through the same
// seeded stream of word and line reads and writes and compares every read.
// Lines cover addresses below HeapBase, both sides of every page boundary
// they touch, pages far apart, and lines that are never written.
func TestImageMatchesMap(t *testing.T) {
	var lines []LineAddr
	for _, p := range []LineAddr{0, 1, 2, HeapBase.Line() / pageLines, 1 << 20, 1<<40 + 3} {
		lines = append(lines, p*pageLines, p*pageLines+1, p*pageLines+pageLines-1, p*pageLines+pageLines)
		if p > 0 {
			lines = append(lines, p*pageLines-1)
		}
	}
	never := LineAddr(5*pageLines + 7) // on a page nothing writes
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		im, ref := NewImage(), map[Addr]uint64{}
		refLine := func(l LineAddr) (d LineData) {
			for i := range d {
				d[i] = ref[l.WordOf(i)]
			}
			return d
		}
		for step := 0; step < 4000; step++ {
			l := lines[rng.Intn(len(lines))]
			a := l.WordOf(rng.Intn(LineWords))
			switch rng.Intn(5) {
			case 0:
				v := rng.Uint64()
				im.WriteWord(a, v)
				ref[a] = v
			case 1:
				var d LineData
				for i := range d {
					d[i] = rng.Uint64()
					ref[l.WordOf(i)] = d[i]
				}
				im.WriteLine(l, &d)
			case 2:
				if got, want := im.ReadWord(a), ref[a]; got != want {
					t.Fatalf("seed %d step %d: ReadWord(%d) = %d, map %d", seed, step, a, got, want)
				}
			case 3:
				d := LineData{1, 2, 3} // ReadLine must overwrite all of it
				im.ReadLine(l, &d)
				if want := refLine(l); d != want {
					t.Fatalf("seed %d step %d: ReadLine(%d) = %v, map %v", seed, step, l, d, want)
				}
			default:
				d := LineData{1, 2, 3}
				im.ReadLine(never, &d)
				if d != (LineData{}) || im.ReadWord(never.WordOf(rng.Intn(LineWords))) != 0 {
					t.Fatalf("seed %d step %d: never-written line %d reads %v", seed, step, never, d)
				}
			}
		}
		for _, l := range lines {
			var d LineData
			im.ReadLine(l, &d)
			if want := refLine(l); d != want {
				t.Fatalf("seed %d: final ReadLine(%d) = %v, map %v", seed, l, d, want)
			}
		}
	}
}

// TestImageWordOpsAllocateNothing checks that word reads and writes on
// pages that exist, alternating between two of them, allocate nothing, and
// neither do reads of pages that do not.
func TestImageWordOpsAllocateNothing(t *testing.T) {
	im := NewImage()
	a, b := HeapBase, HeapBase+Addr(10*pageLines*LineWords)
	im.WriteWord(a, 1)
	im.WriteWord(b, 2)
	n := testing.AllocsPerRun(100, func() {
		im.WriteWord(a+3, im.ReadWord(b)+1)
		im.WriteWord(b+9, im.ReadWord(a)+1)
		im.ReadWord(b + Addr(pageLines*LineWords))
	})
	if n != 0 {
		t.Fatalf("ReadWord/WriteWord: %v allocs, want 0", n)
	}
}
