package tmapi

import "testing"

func TestAbortRate(t *testing.T) {
	s := Stats{Commits: 100, Aborts: 50}
	if got := s.AbortRate(); got != 0.5 {
		t.Fatalf("AbortRate = %v, want 0.5", got)
	}
	if (Stats{}).AbortRate() != 0 {
		t.Fatal("AbortRate with no commits should be 0")
	}
}

func TestMedianMaxConflicts(t *testing.T) {
	cases := []struct {
		degrees []int
		md, mx  int
	}{
		{nil, 0, 0},
		{[]int{0, 0, 0}, 0, 0},
		{[]int{1, 2, 3}, 2, 3},
		{[]int{0, 0, 5}, 0, 5},
		{[]int{4}, 4, 4},
		{[]int{1, 1, 2, 2}, 1, 2}, // lower median for even counts
		{[]int{0, 63, 63}, 63, 63},
	}
	for _, c := range cases {
		var s Stats
		for _, d := range c.degrees {
			s.ConflictDegrees[d]++
		}
		md, mx := s.MedianMaxConflicts()
		if md != c.md || mx != c.mx {
			t.Errorf("degrees %v: got (%d,%d), want (%d,%d)", c.degrees, md, mx, c.md, c.mx)
		}
	}
}

func TestAbortErrorIsError(t *testing.T) {
	var err error = AbortError{}
	if err.Error() == "" {
		t.Fatal("empty error string")
	}
}
