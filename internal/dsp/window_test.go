package dsp

import (
	"math"
	"math/rand"
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
	y := SmoothConvolveInto(nil, x, HannWindow(9))
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
	y := SmoothConvolveInto(nil, x, HannWindow(9))
	if Variance(y) >= Variance(x)/2 {
		t.Fatalf("smoothing did not reduce variance: %g vs %g", Variance(y), Variance(x))
	}
}

func TestSmoothConvolveEmpty(t *testing.T) {
	if got := SmoothConvolveInto(nil, nil, HannWindow(5)); len(got) != 0 {
		t.Fatal("empty signal should stay empty")
	}
	x := []float64{1, 2, 3}
	got := SmoothConvolveInto(nil, x, nil)
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

// smoothKernel is a length-m kernel with a non-zero sum: the Hann
// window, or for m <= 2 (where it is all zeros) a lopsided pair.
func smoothKernel(m int) []float64 {
	if m <= 2 {
		return []float64{0.25, 0.75}[:m]
	}
	return HannWindow(m)
}

// sameSmooth fails t unless SmoothConvolveInto of x by k is the indexed
// one-output loop's, bit for bit.
func sameSmooth(t *testing.T, x, k []float64) {
	t.Helper()
	got, want := SmoothConvolveInto(nil, x, k), indexedSmooth(x, k)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("window %d, n=%d, point %d: %v, indexed %v", len(k), len(x), i, got[i], want[i])
		}
	}
}

// TestSmoothConvolveEqualsIndexedLoop: the two-outputs-per-pass loop
// sums every output's taps in the indexed one-output loop's order, bit
// for bit, at odd and even interior counts and every kernel length from
// 1 to n+2 — wider than the signal, where there is no interior.
func TestSmoothConvolveEqualsIndexedLoop(t *testing.T) {
	x := benchSignal(300)
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 64, 65} {
		for m := 1; m <= n+2; m++ {
			sameSmooth(t, x[:n], smoothKernel(m))
		}
	}
	for m := 1; m <= 33; m++ {
		for _, n := range []int{300, 299} {
			sameSmooth(t, x[:n], smoothKernel(m))
		}
	}
}

// FuzzSmoothConvolve: the interior loop equals the indexed one-output
// loop bit for bit for any signal, kernel length and kernel values.
func FuzzSmoothConvolve(f *testing.F) {
	f.Add(int64(1), uint16(1024), uint8(24), false)
	f.Add(int64(2), uint16(5), uint8(7), true)
	f.Add(int64(3), uint16(63), uint8(4), true)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, m uint8, signed bool) {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, int(n)%4097)
		for i := range x {
			x[i] = rng.ExpFloat64()
			if signed {
				x[i] = rng.NormFloat64()
			}
		}
		k := make([]float64, 1+int(m)%64)
		var total float64
		for j := range k {
			k[j] = rng.Float64()
			if signed {
				k[j] -= 0.25
			}
			total += k[j]
		}
		if total == 0 {
			return // the interior is zeros; the reference divides by zero
		}
		sameSmooth(t, x, k)
	})
}
