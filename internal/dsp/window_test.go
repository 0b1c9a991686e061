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

// indexedSmooth is SmoothConvolveInto as it was before its inner loop
// re-sliced its operands: the same four accumulators, indexed.
func indexedSmooth(x, kernel []float64) []float64 {
	n, m := len(x), len(kernel)
	dst := make([]float64, n)
	half := m / 2
	var total float64
	for _, k := range kernel {
		total += k
	}
	lo, hi := half, n-(m-1-half)
	if lo > n {
		lo = n
	}
	if hi < lo {
		hi = lo
	}
	inv := 1 / total
	for i := lo; i < hi; i++ {
		base := x[i-half : i-half+m : i-half+m]
		var s0, s1, s2, s3 float64
		j := 0
		for ; j+4 <= m; j += 4 {
			s0 += base[j] * kernel[j]
			s1 += base[j+1] * kernel[j+1]
			s2 += base[j+2] * kernel[j+2]
			s3 += base[j+3] * kernel[j+3]
		}
		for ; j < m; j++ {
			s0 += base[j] * kernel[j]
		}
		dst[i] = (s0 + s1 + s2 + s3) * inv
	}
	smoothEdges(dst, x, kernel, 0, lo)
	smoothEdges(dst, x, kernel, hi, n)
	return dst
}

// TestSmoothConvolveEqualsIndexedLoop: the bounds-check-free loop sums
// every accumulator's taps in the old order, bit for bit, for every
// window length the harmonic search can ask for up to 33.
func TestSmoothConvolveEqualsIndexedLoop(t *testing.T) {
	x := benchSignal(300)
	for m := 1; m <= 33; m++ {
		k := HannWindow(m)
		if m <= 2 {
			k = []float64{0.25, 0.75}[:m] // a length-2 Hann window is all zeros
		}
		for _, n := range []int{300, m, 5} {
			got, want := SmoothConvolve(x[:n], k), indexedSmooth(x[:n], k)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("window %d, n=%d, point %d: %v, indexed %v", m, n, i, got[i], want[i])
				}
			}
		}
	}
}
