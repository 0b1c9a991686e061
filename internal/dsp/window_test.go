package dsp

import (
	"math"
	"testing"
)

func TestHannWindowShape(t *testing.T) {
	w := HannWindow(24)
	if len(w) != 24 {
		t.Fatalf("length %d", len(w))
	}
	if math.Abs(w[0]) > 1e-12 || math.Abs(w[23]) > 1e-12 {
		t.Fatalf("Hann endpoints should be 0: %g %g", w[0], w[23])
	}
	// Symmetric.
	for i := 0; i < 12; i++ {
		if !almostEqual(w[i], w[23-i], 1e-12) {
			t.Fatalf("asymmetric at %d: %g vs %g", i, w[i], w[23-i])
		}
	}
	// Peak near the center with value close to 1 (exactly 1 for odd n).
	wOdd := HannWindow(25)
	if !almostEqual(wOdd[12], 1, 1e-12) {
		t.Fatalf("odd-length Hann center %g", wOdd[12])
	}
}

func TestWindowEdgeCases(t *testing.T) {
	if got := HannWindow(0); len(got) != 0 {
		t.Fatal("HannWindow(0) should be empty")
	}
	if got := HannWindow(1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("HannWindow(1) = %v", got)
	}
}

func TestSmoothConvolvePreservesConstant(t *testing.T) {
	// The kernel-mass normalization must leave a constant input intact,
	// including near the edges.
	x := make([]float64, 50)
	for i := range x {
		x[i] = 7
	}
	y := SmoothConvolve(x, HannWindow(9))
	for i, v := range y {
		if !almostEqual(v, 7, 1e-12) {
			t.Fatalf("sample %d: %g", i, v)
		}
	}
}

func TestSmoothConvolveReducesVariance(t *testing.T) {
	x := make([]float64, 256)
	for i := range x {
		if i%2 == 0 {
			x[i] = 1
		} else {
			x[i] = -1
		}
	}
	y := SmoothConvolve(x, HannWindow(9))
	if Variance(y) >= Variance(x)/2 {
		t.Fatalf("smoothing did not reduce variance: %g vs %g", Variance(y), Variance(x))
	}
}

func TestSmoothConvolveEmpty(t *testing.T) {
	if got := SmoothConvolve(nil, HannWindow(5)); len(got) != 0 {
		t.Fatal("empty signal should stay empty")
	}
	x := []float64{1, 2, 3}
	got := SmoothConvolve(x, nil)
	for i := range x {
		if got[i] != x[i] {
			t.Fatalf("empty kernel should copy input, got %v", got)
		}
	}
}

func TestEWMA(t *testing.T) {
	x := []float64{1, 1, 1, 10}
	y := EWMA(x, 0.5)
	if y[0] != 1 {
		t.Fatalf("first EWMA sample %g", y[0])
	}
	if !(y[3] > 1 && y[3] < 10) {
		t.Fatalf("EWMA should lag the jump: %g", y[3])
	}
	// alpha out of range behaves like identity.
	id := EWMA(x, 2)
	for i := range x {
		if id[i] != x[i] {
			t.Fatalf("alpha>1 should be identity: %v", id)
		}
	}
	if got := EWMA(nil, 0.5); len(got) != 0 {
		t.Fatal("EWMA(nil) should be empty")
	}
}
