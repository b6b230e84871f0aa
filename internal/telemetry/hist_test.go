package telemetry

import (
	"math"
	"testing"
)

func TestEmptyHistIsGuarded(t *testing.T) {
	var h Hist
	if m := h.Mean(); m != 0 || math.IsNaN(m) {
		t.Fatalf("empty Mean = %v, want 0", m)
	}
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2, math.NaN()} {
		if v := h.Quantile(q); v != 0 {
			t.Fatalf("empty Quantile(%v) = %d, want 0", q, v)
		}
	}
	// An empty snapshot histogram (the Print path) must also be zero-safe.
	s := New(1).Snapshot()
	m := s.Hist(HistID(0))
	if v := m.Mean(); v != 0 {
		t.Fatalf("snapshot empty Mean = %v", v)
	}
}

func TestQuantileClampsOutOfRange(t *testing.T) {
	var h Hist
	for i := 0; i < 100; i++ {
		h.observe(uint64(i))
	}
	lo, hi := h.Quantile(0), h.Quantile(1)
	if got := h.Quantile(-5); got != lo {
		t.Fatalf("Quantile(-5) = %d, want clamp to Quantile(0) = %d", got, lo)
	}
	if got := h.Quantile(7); got != hi {
		t.Fatalf("Quantile(7) = %d, want clamp to Quantile(1) = %d", got, hi)
	}
	if got := h.Quantile(math.NaN()); got != lo {
		t.Fatalf("Quantile(NaN) = %d, want clamp to Quantile(0) = %d", got, lo)
	}
	if q50 := h.Quantile(0.5); q50 < lo || q50 > hi {
		t.Fatalf("Quantile(0.5) = %d outside [%d, %d]", q50, lo, hi)
	}
}
